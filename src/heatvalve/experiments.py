"""Experiment orchestration: steady-state sweeps, time traces, distribution scans.

Every realization gets its own RNG stream, derived from the master seed and
the job coordinates with a splitmix64 hash, so adding grid points or
realizations never perturbs existing results and identical inputs give
byte-identical outputs regardless of execution order.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import analytics
from .analytics import UniformBathSpec
from .evolution import (
    CurrentTrace,
    heat_current,
    make_propagator,
    steady_state_estimate,
)
from .valve import (
    BathRealization,
    CouplingDistribution,
    ValveConfig,
    apply_internal_couplings,
    bath_levels,
    build_hamiltonian,
    initial_correlation,
    sample_bath,
)

DEFAULT_WINDOW = (20.0, 50.0)
DEFAULT_TIME_STEP = 0.05
COLD_BATH = 2


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


@dataclass(frozen=True)
class TraceRecord:
    time: float
    kind: str
    bath_size: int
    total: float
    normal: float
    anomalous: float
    pert_anomalous: float     # first-order transient formula overlay


def _prepare_bath(config: ValveConfig) -> BathRealization:
    bath = sample_bath(config)
    if config.internal_coupling is not None:
        bath = apply_internal_couplings(config, bath)
    return bath


def simulate_trace(
    config: ValveConfig, times: np.ndarray, bath: BathRealization | None = None
) -> CurrentTrace:
    """Cold-bath current trace for one realization, exact or RWA per config.

    ``bath`` is the realization drawn from ``config`` (internal couplings
    folded in); it is sampled here when not given.
    """
    times = np.asarray(times, dtype=float)
    if bath is None:
        bath = _prepare_bath(config)
    H = build_hamiltonian(config, bath)
    prop = make_propagator(H, initial_correlation(config, bath))
    return heat_current(prop, H, bath_levels(config, bath, COLD_BATH), times)


def _steady_state_job(config: ValveConfig, window, time_step) -> float:
    times = np.arange(window[0], window[1] + time_step / 2, time_step)
    trace = simulate_trace(config, times)
    mean, _ = steady_state_estimate(trace, window)
    return mean


def _run_job(args):
    return _steady_state_job(*args)


def _parallel_map(jobs, n_jobs: int):
    if n_jobs <= 1 or len(jobs) <= 1:
        return [_run_job(j) for j in jobs]
    with ProcessPoolExecutor(max_workers=n_jobs) as pool:
        return list(pool.map(_run_job, jobs))


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
    jobs, coords = [], []
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
                coords.append((gi, kind))
    try:
        means = _parallel_map(jobs, n_jobs)
    except Exception as exc:
        raise RuntimeError(f"sweep realization failed: {exc}") from exc

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
        for kind in kinds:
            vals = [m for m, c in zip(means, coords) if c == (gi, kind)]
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


def run_trace(config: ValveConfig, times) -> list[TraceRecord]:
    """Full current trace with the perturbative anomalous-current overlay."""
    times = np.asarray(times, dtype=float)
    bath = _prepare_bath(config)
    trace = simulate_trace(config, times, bath=bath)
    mean_g_sq = config.gamma**2 / (3 * config.bath_size)
    pert = analytics.anomalous_current_discrete(
        bath.frequencies[COLD_BATH - 1],
        config.bath_temperature(COLD_BATH),
        mean_g_sq,
        times,
        config.omega0,
    )
    kind = "rwa" if config.rwa else "exact"
    return [
        TraceRecord(
            time=float(t),
            kind=kind,
            bath_size=config.bath_size,
            total=float(trace.total[i]),
            normal=float(trace.normal[i]),
            anomalous=float(trace.anomalous[i]),
            pert_anomalous=float(pert[i]),
        )
        for i, t in enumerate(times)
    ]


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
            grid_offset=1000 * (di + 1),
        )
    return out
