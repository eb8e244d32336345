"""Experiment orchestration: steady-state sweeps, time traces, distribution scans.

Every sweep realization gets its own RNG stream, derived from the master seed
and the job coordinates with a splitmix64 hash, so adding grid points or
realizations never perturbs existing results and identical inputs give
byte-identical outputs regardless of execution order.  A worker solves its
consecutive jobs as stacks (``nambu.arrow_propagators``), and an arrow's
propagator is the same bits in any stack, so they do not depend on how the
jobs are shared among workers either.  A distribution scan runs its three
coupling laws as one job list in one worker pool.  The kinds of a trace
share one bath and one first-order overlay, and come back as arrays over the
time grid, from which the CLI writes its rows column by column.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from . import analytics
from .config import ConfigError
from .evolution import CurrentTrace, heat_current, window_mean_current
from .nambu import arrow_propagators
from .valve import (
    COLD_BATH,
    BathRealization,
    CouplingDistribution,
    ValveConfig,
    apply_internal_couplings,
    bath_levels,
    build_arrow,
    sample_bath,
    thermal_occupations,
)

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

    def __post_init__(self):
        if self.realizations < 1:
            raise ValueError("realizations must be >= 1")
        if self.std_current < 0:
            raise ValueError("std_current must be >= 0")


def _inputs(config: ValveConfig, bath: BathRealization | None = None):
    """Arrow, occupations and cold-bath levels of one realization, bath sampled if not given."""
    if bath is None:
        bath = apply_internal_couplings(config, sample_bath(config))
    return (build_arrow(config, bath), thermal_occupations(config, bath),
            bath_levels(config, bath, COLD_BATH))


def realization(config: ValveConfig, bath: BathRealization | None = None):
    """Arrow propagator and cold-bath levels of one realization, bath sampled if not given."""
    arrow, occupations, levels = _inputs(config, bath)
    (prop,) = arrow_propagators([(arrow, occupations)])
    return prop, levels


def simulate_trace(
    config: ValveConfig, times: np.ndarray, bath: BathRealization | None = None
) -> CurrentTrace:
    """Cold-bath current trace for one realization, exact or RWA per config.

    ``bath`` is the realization drawn from ``config`` (internal couplings
    folded in); it is sampled here when not given.
    """
    return heat_current(*realization(config, bath), times)


def _steady_state_jobs(jobs) -> list[float]:
    """Window means of the (config, window, time step) jobs, in order, with no time grid.

    The arrows are solved as stacks of consecutive jobs (``arrow_propagators``),
    each job's bath sampled when its stack is gathered.
    """
    pending = deque()

    def arrows():
        for config, window, time_step in jobs:
            arrow, occupations, levels = _inputs(config)
            pending.append((levels, window, time_step))
            yield arrow, occupations

    means = []
    for prop in arrow_propagators(arrows()):
        means.append(window_mean_current(prop, *pending.popleft()))
        del prop  # a stack's D2 is freed before the next stack is solved
    return means


def _parallel_map(jobs, n_jobs: int):
    # A forked pool starts all its workers at once: never more than there is work or
    # CPUs this process may run on (the host's count where affinity is unknown).
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(n_jobs, len(jobs), cpus or 1)
    if workers <= 1:
        return _steady_state_jobs(jobs)
    # imported here: the pool loads multiprocessing, which a one-worker run never needs
    from concurrent.futures import ProcessPoolExecutor

    # each worker a share of consecutive jobs, which it solves as stacks
    size = -(-len(jobs) // workers)
    shares = [jobs[i : i + size] for i in range(0, len(jobs), size)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return [mean for share in pool.map(_steady_state_jobs, shares) for mean in share]


def _sweep_jobs(template, grid, realizations, kinds, window, time_step, grid_offset):
    """The (config, window, time step) jobs of a sweep, grid point by kind by realization.

    A job's seed is derived from the template's seed and its coordinates, the
    grid index shifted by ``grid_offset``.
    """
    if realizations < 1:
        raise ValueError("realizations must be >= 1")
    if not grid:
        raise ValueError("gamma grid must be nonempty")
    return [
        (replace(template, gamma=float(gamma), rwa=(kind == "rwa"),
                 seed=derive_seed(template.seed, gi + grid_offset, r, 0 if kind == "exact" else 1)),
         window, time_step)
        for gi, gamma in enumerate(grid) for kind in kinds for r in range(realizations)
    ]


def _records(template, grid, kinds, means) -> list[SweepRecord]:
    """One SweepRecord per (grid point, kind), from the means (grid x kinds x realizations)."""
    records = []
    for gamma, row in zip(grid, means):
        gamma = float(gamma)
        gamma_sd = analytics.spectral_density(gamma)
        landauer = analytics.landauer_current(gamma, template.t_hot, template.t_cold)
        weak = analytics.weak_coupling_current(gamma_sd, gamma_sd, template.t_hot, template.t_cold)
        for kind, vals in zip(kinds, row):
            records.append(SweepRecord(
                gamma_over_omega0=gamma, kind=kind, mean_current=float(np.mean(vals)),
                std_current=float(np.std(vals)), landauer=landauer, weak_coupling=weak,
                realizations=len(vals)))
    return records


def run_sweep(
    config_template: ValveConfig,
    gamma_grid,
    realizations: int,
    kinds,
    window,
    time_step,
    n_jobs: int = 1,
    grid_offset: int = 0,
) -> list[SweepRecord]:
    """Steady-state window averages over a coupling grid, per Hamiltonian kind.

    Each (grid point, kind, realization) is an independent job with its own
    derived seed; output order is deterministic.  The kinds, window and time
    step have their defaults in the config schema (``config._DEFAULTS``).
    """
    gamma_grid = list(gamma_grid)
    jobs = _sweep_jobs(config_template, gamma_grid, realizations, kinds, window, time_step,
                       grid_offset)
    means = np.reshape(_parallel_map(jobs, n_jobs), (len(gamma_grid), len(kinds), realizations))
    return _records(config_template, gamma_grid, kinds, means)


def run_trace(
    config_template: ValveConfig, times, kinds
) -> tuple[dict[str, CurrentTrace], np.ndarray]:
    """Current trace per Hamiltonian kind, with the perturbative anomalous-current overlay.

    The bath depends on the seed, not on the kind, so every kind runs on one
    sampled bath and shares one overlay.
    """
    times = np.asarray(times, dtype=float)
    bath = apply_internal_couplings(config_template, sample_bath(config_template))
    traces = {
        kind: simulate_trace(replace(config_template, rwa=(kind == "rwa")), times, bath=bath)
        for kind in kinds
    }
    pert = analytics.anomalous_current_discrete(
        bath.frequencies[COLD_BATH - 1],
        config_template.bath_temperature(COLD_BATH),
        config_template.gamma,
        times,
    )
    return traces, pert


def run_distribution_comparison(
    config_template: ValveConfig,
    gamma_grid,
    realizations: int,
    kinds,
    window,
    time_step,
    n_jobs: int = 1,
) -> dict[str, list[SweepRecord]]:
    """run_sweep for the three matched-second-moment coupling laws, as one job list in one pool."""
    gamma_grid = list(gamma_grid)
    if len(gamma_grid) > DIST_GRID_MAX:
        raise ConfigError(
            f"config key 'gamma_grid' has {len(gamma_grid)} points; at most "
            f"{DIST_GRID_MAX} keep the coupling laws' seeds apart"
        )
    laws = [replace(config_template, coupling_dist=dist) for dist in CouplingDistribution]
    jobs = [job for di, cfg in enumerate(laws)
            for job in _sweep_jobs(cfg, gamma_grid, realizations, kinds, window, time_step,
                                   DIST_GRID_MAX * (di + 1))]
    means = np.reshape(_parallel_map(jobs, n_jobs),
                       (len(laws), len(gamma_grid), len(kinds), realizations))
    return {cfg.coupling_dist.value: _records(cfg, gamma_grid, kinds, m)
            for cfg, m in zip(laws, means)}
