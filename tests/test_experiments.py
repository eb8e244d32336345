import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import heatvalve
from heatvalve import (
    InternalCouplingSpec,
    ValveConfig,
    evolution,
    experiments,
    fock,
    nambu,
    valve,
)
from heatvalve.experiments import (
    SweepRecord,
    derive_seed,
    run_distribution_comparison,
    run_sweep,
    run_trace,
    simulate_trace,
)
from heatvalve import (
    sample_bath,
    CouplingDistribution,
    landauer_current,
    spectral_density,
    weak_coupling_current,
)
from heatvalve.evolution import window_times

from reference import (
    NambuMatrix,
    bath_hamiltonian,
    build_hamiltonian,
    dense_current,
    initial_correlation,
    make_propagator,
    steady_state_estimate,
)

FAST = dict(window=(20.0, 30.0), time_step=0.5)


def template(**kw):
    base = dict(bath_size=5, gamma=0.0, t_hot=1.0, t_cold=0.0, seed=42)
    base.update(kw)
    return ValveConfig(**base)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, 1, 2, 3) == derive_seed(42, 1, 2, 3)

    def test_order_sensitive(self):
        assert derive_seed(42, 1, 2) != derive_seed(42, 2, 1)

    def test_master_sensitive(self):
        assert derive_seed(1, 0, 0) != derive_seed(2, 0, 0)

    def test_64_bit_range_and_spread(self):
        seeds = {derive_seed(7, i, j) for i in range(50) for j in range(50)}
        assert len(seeds) == 2500
        assert all(0 <= s < 2**64 for s in seeds)


class TestSimulateTrace:
    def test_reduced_rwa_matches_full_representation(self):
        cfg = template(bath_size=40, gamma=0.4, rwa=True, seed=3)
        times = np.linspace(0, 30, 151)
        trace = simulate_trace(cfg, times)  # the secular solver on the shifted arrowhead, M x M

        bath = sample_bath(cfg)
        H = build_hamiltonian(cfg, bath)
        H_full = NambuMatrix(modes=H.modes, data=H.data.astype(complex))  # 2M x 2M eigh
        prop = make_propagator(H_full, initial_correlation(cfg, bath))
        normal, anomalous = dense_current(prop, H, bath_hamiltonian(cfg, bath, 2), times)
        assert np.abs(trace.total - (normal + anomalous)).max() < 1e-10
        assert np.abs(trace.anomalous).max() == 0.0

    def test_rwa_matches_fock_oracle(self):
        cfg = template(bath_size=4, gamma=0.6, rwa=True, t_cold=0.3, seed=12)
        times = np.linspace(0, 20, 81)
        trace = simulate_trace(cfg, times)
        dev = np.abs(trace.total - fock.exact_current(cfg, sample_bath(cfg), times))
        assert dev.max() < 1e-9
        assert np.abs(trace.anomalous).max() == 0.0

    @pytest.mark.parametrize("kw", [
        dict(gamma=0.4),
        dict(gamma=0.4, rwa=True),
        dict(gamma=0.0),
        dict(gamma=0.4, internal_coupling=InternalCouplingSpec(scale=0.3)),
    ], ids=["exact", "rwa", "gamma0", "real_internal"])
    def test_runs_from_the_arrow_alone(self, kw, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("dense route taken")

        # the dense builders left in the package serve the Fock oracle alone
        for module in (heatvalve, nambu, valve, evolution, experiments, fock):
            for name in ("hamiltonian_blocks", "lift"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refused)
        cfg = template(bath_size=2, t_cold=0.3, seed=8, **kw)
        times = np.linspace(0, 20, 81)
        trace = simulate_trace(cfg, times)
        monkeypatch.undo()
        bath = valve.apply_internal_couplings(cfg, sample_bath(cfg))
        dev = np.abs(trace.total - fock.exact_current(cfg, bath, times))
        assert dev.max() < 1e-9

    def test_exact_kind_splits_current(self):
        cfg = template(bath_size=10, gamma=0.5, seed=1)
        trace = simulate_trace(cfg, np.linspace(0, 20, 101))
        assert np.abs(trace.anomalous).max() > 0.0
        assert np.abs(trace.total - trace.normal - trace.anomalous).max() < 1e-12


class TestRunSweep:
    def test_zero_coupling_grid(self):
        records = run_sweep(template(), [0.0], realizations=3, kinds=("exact", "rwa"), **FAST)
        assert len(records) == 2
        for rec in records:
            assert rec.mean_current == 0.0
            assert rec.std_current == 0.0
            assert rec.landauer == 0.0
            assert rec.weak_coupling == 0.0

    def test_oracle_columns_match_analytics(self):
        (rec,) = run_sweep(template(), [0.3], realizations=2, kinds=("rwa",), **FAST)
        g = spectral_density(0.3)
        assert rec.landauer == pytest.approx(landauer_current(0.3, 1.0, 0.0), rel=1e-12)
        assert rec.weak_coupling == pytest.approx(
            weak_coupling_current(g, g, 1.0, 0.0), rel=1e-12
        )
        assert rec.realizations == 2
        assert rec.kind == "rwa"

    def test_grid_extension_preserves_existing_points(self):
        small = run_sweep(template(), [0.1], realizations=2, kinds=("rwa",), **FAST)
        large = run_sweep(template(), [0.1, 0.4], realizations=2, kinds=("rwa",), **FAST)
        assert small[0] == large[0]

    def test_parallel_matches_serial(self):
        serial = run_sweep(template(), [0.2, 0.3], realizations=2, kinds=("rwa",), **FAST)
        parallel = run_sweep(
            template(), [0.2, 0.3], realizations=2, kinds=("rwa",), n_jobs=2, **FAST
        )
        assert serial == parallel

    # cpus is the host's count, allowed the CPUs this process may run on
    # (None: a platform with no affinity call)
    @pytest.mark.parametrize("cpus,allowed,asked,dist_asked",
                             [(64, 64, [4], [6]), (3, None, [3], [3]), (None, None, [], []),
                              (64, 2, [2], [2])],
                             ids=["64_cpus", "3_cpus", "unknown_cpus", "2_of_64_cpus"])
    def test_pool_bounded_by_jobs_and_cpus(self, monkeypatch, cpus, allowed, asked, dist_asked):
        # a stand-in pool that records its size and maps in this process
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr("os.cpu_count", lambda: cpus)
        if allowed is None:
            monkeypatch.delattr("os.sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(allowed)),
                                raising=False)
        sweep = dict(gamma_grid=[0.2, 0.3], realizations=2, kinds=("rwa",), **FAST)
        records = run_sweep(template(), n_jobs=10**6, **sweep)  # 4 jobs
        assert sizes == asked
        assert records == run_sweep(template(), **sweep)
        # a dist runs its three coupling laws' 6 jobs in one pool
        sizes.clear()
        dist = dict(gamma_grid=[0.2], realizations=2, kinds=("rwa",), **FAST)
        by_law = run_distribution_comparison(template(), n_jobs=10**6, **dist)
        assert sizes == dist_asked
        assert by_law == run_distribution_comparison(template(), **dist)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="grid"):
            run_sweep(template(), [], realizations=1, kinds=("rwa",), **FAST)

    def test_record_validation(self):
        with pytest.raises(ValueError, match="realizations"):
            SweepRecord(0.1, "rwa", 0.0, 0.0, 0.0, 0.0, realizations=0)


class TestWindowMeans:
    """Sweeps and dists take each window mean from ``window_mean_current``."""

    @staticmethod
    def grid_job(config, window, time_step):
        trace = simulate_trace(config, window_times(window, time_step))
        return steady_state_estimate(trace, window)[0]

    @staticmethod
    def assert_close(got, want):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.mean_current == pytest.approx(w.mean_current, rel=1e-12, abs=0)
            assert g.std_current == pytest.approx(w.std_current, rel=1e-12, abs=0)
            assert replace(g, mean_current=0.0, std_current=0.0) == replace(
                w, mean_current=0.0, std_current=0.0
            )

    def test_sweep_and_dist_equal_the_grid_means(self, monkeypatch):
        sweep = dict(realizations=2, kinds=("exact", "rwa"), **FAST)
        dist_template = template(
            bath_size=8, internal_coupling=InternalCouplingSpec(scale=0.3)
        )
        monkeypatch.setattr(experiments, "_steady_state_jobs",
                            lambda jobs: [self.grid_job(*job) for job in jobs])
        want_sweep = run_sweep(template(bath_size=20), [0.0, 0.3], **sweep)
        want_dist = run_distribution_comparison(dist_template, [0.2], **sweep)
        monkeypatch.undo()
        self.assert_close(run_sweep(template(bath_size=20), [0.0, 0.3], **sweep), want_sweep)
        got_dist = run_distribution_comparison(dist_template, [0.2], **sweep)
        assert set(got_dist) == set(want_dist)
        for dist in want_dist:
            self.assert_close(got_dist[dist], want_dist[dist])

    def test_aliasing_time_step_is_refused(self):
        with pytest.raises(ValueError, match=r"s_max.*pi/\(2 s_max\)"):
            run_sweep(template(), [0.3], realizations=1, kinds=("exact",),
                      window=(20.0, 50.0), time_step=1.0)


@pytest.mark.parametrize("deflated", [False, True], ids=["coupled", "deflated"])
def test_realization_holds_one_mode_square(deflated):
    # D2 is the realization's only M x M array: solving, probing and a window
    # mean at N = 1000 (M = 2001, 32 MB an array) peak below 1.5 of one; a
    # bath with every other cold coupling zero deflates a quarter of the modes
    cfg = ValveConfig(bath_size=1000, gamma=0.2, t_hot=1.0, t_cold=0.0, seed=3)
    bath = sample_bath(cfg)
    if deflated:
        couplings = bath.couplings.copy()
        couplings[1, ::2] = 0.0
        bath = valve.BathRealization(frequencies=bath.frequencies, couplings=couplings)
    tracemalloc.start()
    try:
        prop, levels = experiments.realization(cfg, bath)
        evolution.window_mean_current(prop, levels, (20.0, 50.0), 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    M = 2 * cfg.bath_size + 1
    one = 8 * M**2
    assert peak < 1.5 * one, f"peak {peak / 1e6:.1f} MB, {peak / one:.2f} of one M x M array"
    assert prop.roots == (M - cfg.bath_size // 2 if deflated else M)


class TestRunTrace:
    def test_rwa_anomalous_all_zero(self):
        cfg = template(bath_size=8, gamma=0.2, rwa=True)
        traces, _ = run_trace(cfg, np.linspace(0, 10, 21), kinds=("rwa",))
        assert list(traces) == ["rwa"]
        assert len(traces["rwa"].times) == 21
        assert np.all(traces["rwa"].anomalous == 0.0)

    def test_perturbative_overlay_starts_at_zero(self):
        cfg = template(bath_size=8, gamma=0.2)
        traces, pert = run_trace(cfg, np.linspace(0, 10, 21), kinds=("exact",))
        assert traces["exact"].times[0] == 0.0
        assert pert[0] == 0.0
        assert len(pert) == 21

    @pytest.mark.parametrize("rwa", [False, True])
    def test_samples_the_bath_once(self, monkeypatch, rwa):
        import heatvalve.experiments as experiments

        calls = []

        def counting(config):
            calls.append(config.seed)
            return sample_bath(config)

        monkeypatch.setattr(experiments, "sample_bath", counting)
        cfg = template(bath_size=6, gamma=0.2, rwa=rwa)
        times = np.linspace(0, 10, 21)
        kind = "rwa" if rwa else "exact"
        traces, _ = run_trace(cfg, times, kinds=(kind,))
        assert calls == [cfg.seed]
        assert list(traces[kind].total) == list(simulate_trace(cfg, times).total)

    def test_overlay_tracks_anomalous_current(self):
        # desk-scale version of the transient-formula comparison
        cfg = template(bath_size=300, gamma=0.1, seed=9)
        times = np.arange(0.0, 30.0, 0.1)
        traces, pert = run_trace(cfg, times, kinds=("exact",))
        anom = traces["exact"].anomalous
        rms = np.sqrt(np.mean((anom - pert) ** 2)) / np.sqrt(np.mean(anom**2))
        assert rms < 0.5


class TestDistributionComparison:
    def test_zero_coupling_identical(self):
        out = run_distribution_comparison(
            template(), [0.0], realizations=2, kinds=("rwa",), **FAST
        )
        assert set(out) == {"uniform", "gaussian", "equal"}
        for records in out.values():
            assert all(r.mean_current == 0.0 for r in records)

    def test_records_tagged_with_distribution(self):
        out = run_distribution_comparison(
            template(), [0.2], realizations=1, kinds=("rwa",), **FAST
        )
        assert list(out) == [d.value for d in CouplingDistribution]

    def test_grid_longer_than_the_seed_stride_is_refused(self, monkeypatch):
        # law di's grid point gi draws its seed at gi + 1000 (di + 1), so point
        # 1000 of one law would repeat point 0 of the next
        seeds = []
        monkeypatch.setattr(experiments, "_steady_state_jobs",
                            lambda jobs: [seeds.append(config.seed) or 0.0 for config, *_ in jobs])
        run_distribution_comparison(template(), [0.0] * 1000, realizations=1, kinds=("rwa",),
                                    **FAST)
        assert len(set(seeds)) == len(seeds) == 3000
        seeds.clear()
        with pytest.raises(ValueError, match="'gamma_grid' has 1001 points"):
            run_distribution_comparison(template(), [0.0] * 1001, realizations=1,
                                        kinds=("rwa",), **FAST)
        assert seeds == []
