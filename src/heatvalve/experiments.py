"""Experiment orchestration: steady-state sweeps, time traces, distribution scans.

Every sweep realization gets its own RNG stream, derived from the master seed
and the job coordinates with a splitmix64 hash, so adding grid points or
realizations never perturbs existing results and identical inputs give
byte-identical outputs regardless of execution order.  The kinds of a trace
share one bath and one first-order overlay, and come back as arrays over the
time grid, from which the CLI writes its rows column by column.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import analytics
from .analytics import UniformBathSpec
from .evolution import (
    CurrentTrace,
    arrow_propagator,
    heat_current,
    window_mean_current,
)
from .valve import (
    BathRealization,
    CouplingDistribution,
    ValveConfig,
    apply_internal_couplings,
    bath_levels,
    build_arrow,
    sample_bath,
    thermal_occupations,
)

DEFAULT_WINDOW = (20.0, 50.0)
DEFAULT_TIME_STEP = 0.05
COLD_BATH = 2
# run_distribution_comparison offsets the grid index of coupling law di by
# DIST_GRID_MAX (di + 1): a longer grid would give two laws the same seeds.
DIST_GRID_MAX = 1000


def derive_seed(master_seed: int, *indices: int) -> int:
    """Stable splitmix64-style hash of (master seed, coordinates)."""
    x = master_seed & 0xFFFFFFFFFFFFFFFF
    for idx in indices:
        x = (x + 0x9E3779B97F4A7C15 + (idx & 0xFFFFFFFFFFFFFFFF)) & 0xFFFFFFFFFFFFFFFF
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        x = z ^ (z >> 31)
    return x


@dataclass(frozen=True)
class SweepRecord:
    gamma_over_omega0: float
    kind: str                 # "exact" | "rwa"
    mean_current: float       # across realizations
    std_current: float        # across realizations (pooled seed-to-seed scatter)
    landauer: float
    weak_coupling: float
    realizations: int
    coupling_dist: str = CouplingDistribution.UNIFORM.value

    def __post_init__(self):
        if self.realizations < 1:
            raise ValueError("realizations must be >= 1")
        if self.std_current < 0:
            raise ValueError("std_current must be >= 0")


def _prepare_bath(config: ValveConfig) -> BathRealization:
    bath = sample_bath(config)
    if config.internal_coupling is not None:
        bath = apply_internal_couplings(config, bath)
    return bath


def _realization(config: ValveConfig, bath: BathRealization | None = None):
    """Propagator and cold-bath levels of one realization, bath sampled if not given."""
    if bath is None:
        bath = _prepare_bath(config)
    prop = arrow_propagator(build_arrow(config, bath), thermal_occupations(config, bath))
    return prop, bath_levels(config, bath, COLD_BATH)


def simulate_trace(
    config: ValveConfig, times: np.ndarray, bath: BathRealization | None = None
) -> CurrentTrace:
    """Cold-bath current trace for one realization, exact or RWA per config.

    ``bath`` is the realization drawn from ``config`` (internal couplings
    folded in); it is sampled here when not given.
    """
    return heat_current(*_realization(config, bath), times)


def _steady_state_job(config: ValveConfig, window, time_step) -> float:
    """Window mean of one realization's cold-bath current, with no time grid."""
    return window_mean_current(*_realization(config), window, time_step)


def _parallel_map(jobs, n_jobs: int):
    # A forked pool starts all its workers at once: never more than there is work or CPUs.
    workers = min(n_jobs, len(jobs), os.cpu_count() or 1)
    if workers <= 1:
        return [_steady_state_job(*j) for j in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_steady_state_job, *zip(*jobs)))


def run_sweep(
    config_template: ValveConfig,
    gamma_grid,
    realizations: int,
    kinds=("exact", "rwa"),
    window=DEFAULT_WINDOW,
    time_step=DEFAULT_TIME_STEP,
    n_jobs: int = 1,
    grid_offset: int = 0,
) -> list[SweepRecord]:
    """Steady-state window averages over a coupling grid, per Hamiltonian kind.

    Each (grid point, kind, realization) is an independent job with its own
    derived seed; output order is deterministic.
    """
    gamma_grid = list(gamma_grid)
    if realizations < 1:
        raise ValueError("realizations must be >= 1")
    if not gamma_grid:
        raise ValueError("gamma grid must be nonempty")
    jobs = []
    for gi, gamma in enumerate(gamma_grid):
        for kind in kinds:
            for r in range(realizations):
                seed = derive_seed(
                    config_template.seed, gi + grid_offset, r, 0 if kind == "exact" else 1
                )
                cfg = replace(
                    config_template, gamma=float(gamma), rwa=(kind == "rwa"), seed=seed
                )
                jobs.append((cfg, window, time_step))
    means = _parallel_map(jobs, n_jobs)
    means = np.reshape(means, (len(gamma_grid), len(kinds), realizations))

    records = []
    for gi, gamma in enumerate(gamma_grid):
        spec = UniformBathSpec.from_coupling_scale(
            float(gamma), config_template.bath_size, config_template.omega0
        )
        gamma_sd = analytics.spectral_density(spec)
        landauer = analytics.landauer_current(
            spec, spec, config_template.t_hot, config_template.t_cold
        )
        weak = analytics.weak_coupling_current(
            gamma_sd, gamma_sd, config_template.t_hot, config_template.t_cold,
            config_template.omega0,
        )
        for ki, kind in enumerate(kinds):
            vals = means[gi, ki]
            records.append(
                SweepRecord(
                    gamma_over_omega0=float(gamma),
                    kind=kind,
                    mean_current=float(np.mean(vals)),
                    std_current=float(np.std(vals)),
                    landauer=landauer,
                    weak_coupling=weak,
                    realizations=realizations,
                    coupling_dist=config_template.coupling_dist.value,
                )
            )
    return records


def run_trace(
    config_template: ValveConfig, times, kinds=("exact", "rwa")
) -> tuple[dict[str, CurrentTrace], np.ndarray]:
    """Current trace per Hamiltonian kind, with the perturbative anomalous-current overlay.

    The bath depends on the seed, not on the kind, so every kind runs on one
    sampled bath and shares one overlay.
    """
    times = np.asarray(times, dtype=float)
    bath = _prepare_bath(config_template)
    traces = {
        kind: simulate_trace(replace(config_template, rwa=(kind == "rwa")), times, bath=bath)
        for kind in kinds
    }
    pert = analytics.anomalous_current_discrete(
        bath.frequencies[COLD_BATH - 1],
        config_template.bath_temperature(COLD_BATH),
        config_template.gamma**2 / (3 * config_template.bath_size),
        times,
        config_template.omega0,
    )
    return traces, pert


def run_distribution_comparison(
    config_template: ValveConfig,
    gamma_grid,
    realizations: int,
    kinds=("rwa",),
    window=DEFAULT_WINDOW,
    time_step=DEFAULT_TIME_STEP,
    n_jobs: int = 1,
) -> dict[str, list[SweepRecord]]:
    """run_sweep repeated for the three matched-second-moment coupling laws."""
    gamma_grid = list(gamma_grid)
    if len(gamma_grid) > DIST_GRID_MAX:
        raise ValueError(
            f"gamma_grid has {len(gamma_grid)} points; at most {DIST_GRID_MAX} keep "
            "the coupling laws' seeds apart"
        )
    out = {}
    for di, dist in enumerate(CouplingDistribution):
        cfg = replace(config_template, coupling_dist=dist)
        out[dist.value] = run_sweep(
            cfg,
            gamma_grid,
            realizations,
            kinds=kinds,
            window=window,
            time_step=time_step,
            n_jobs=n_jobs,
            grid_offset=DIST_GRID_MAX * (di + 1),
        )
    return out
