import numpy as np
import pytest
from scipy.linalg import expm

from heatvalve import (
    Arrow,
    ArrowPropagator,
    BathRealization,
    CurrentTrace,
    InternalCouplingSpec,
    ValveConfig,
    apply_internal_couplings,
    arrow_propagator,
    bath_hamiltonian,
    bath_levels,
    build_arrow,
    build_hamiltonian,
    build_nambu,
    evolve,
    expectation,
    expectation_series,
    heat_current,
    make_propagator,
    sample_bath,
    steady_state_estimate,
    thermal_occupations,
    window_mean_current,
)
from heatvalve.evolution import MEAN_CHUNK_ROWS, window_sample_count, window_times

from conftest import dense_current, random_correlation, random_nambu


def arrow_setup(**kw):
    """A valve's arrow and propagator, as ``simulate_trace`` builds them."""
    base = dict(bath_size=6, gamma=0.3, t_hot=1.0, t_cold=0.0, seed=5)
    base.update(kw)
    cfg = ValveConfig(**base)
    bath = sample_bath(cfg)
    if cfg.internal_coupling is not None:
        bath = apply_internal_couplings(cfg, bath)
    arrow = build_arrow(cfg, bath)
    prop = arrow_propagator(arrow, thermal_occupations(cfg, bath))
    return cfg, bath, arrow, prop


def complex_internal_coupling(bath_size, scale=0.2, seed=8):
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(2):
        A = rng.normal(size=(bath_size, bath_size)) + 1j * rng.normal(size=(bath_size, bath_size))
        mats.append(scale * (A + A.conj().T) / (2 * np.sqrt(bath_size)))
    return InternalCouplingSpec(matrices=tuple(mats))


class TestEvolve:
    def test_t0_recovers_initial_state(self):
        rng = np.random.default_rng(0)
        H = random_nambu(rng, 5)
        chi0 = random_correlation(rng, 5)
        prop = make_propagator(H, chi0)
        assert np.abs(evolve(prop, 0.0).data - chi0.data).max() < 1e-12

    def test_diagonal_hamiltonian_keeps_diagonal_state(self):
        h = np.diag([0.3, 1.1, 1.7])
        chi0_diag = np.diag([0.9, 0.4, 0.2, 0.1, 0.6, 0.8])
        from heatvalve import CorrelationMatrix

        prop = make_propagator(
            build_nambu(h), CorrelationMatrix(modes=3, data=chi0_diag)
        )
        chi_t = evolve(prop, 4.2).data
        assert np.abs(chi_t - np.diag(np.diagonal(chi_t))).max() < 1e-12
        assert np.abs(chi_t - chi0_diag).max() < 1e-12

    def test_matches_matrix_exponential(self):
        rng = np.random.default_rng(1)
        H = random_nambu(rng, 5)
        chi0 = random_correlation(rng, 5)
        prop = make_propagator(H, chi0)
        for t in (0.3, 2.0, 7.7):
            U = expm(-1j * H.data * t)
            want = U @ chi0.data @ U.conj().T
            assert np.abs(evolve(prop, t).data - want).max() < 1e-10

    def test_zero_hamiltonian_freezes_state(self):
        rng = np.random.default_rng(2)
        chi0 = random_correlation(rng, 4)
        prop = make_propagator(build_nambu(np.zeros((4, 4))), chi0)
        assert np.abs(evolve(prop, 31.4).data - chi0.data).max() < 1e-12

    def test_spectrum_and_trace_preserved(self):
        rng = np.random.default_rng(3)
        H = random_nambu(rng, 20)
        chi0 = random_correlation(rng, 20)
        prop = make_propagator(H, chi0)
        want = np.linalg.eigvalsh(chi0.data)
        for t in (1.0, 9.5):
            chi_t = evolve(prop, t)
            chi_t.validate()
            assert np.abs(np.linalg.eigvalsh(chi_t.data) - want).max() < 1e-10
            assert chi_t.data.trace().real == pytest.approx(20.0, abs=1e-10)

    def test_negative_time_reverses(self):
        rng = np.random.default_rng(4)
        H = random_nambu(rng, 4)
        chi0 = random_correlation(rng, 4)
        prop = make_propagator(H, chi0)
        fwd = make_propagator(H, evolve(prop, 2.5))
        assert np.abs(evolve(fwd, -2.5).data - chi0.data).max() < 1e-10

    def test_mode_mismatch(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError, match="mismatch"):
            make_propagator(random_nambu(rng, 3), random_correlation(rng, 4))


class TestExpectationSeries:
    def test_matches_pointwise_expectation(self):
        cfg, bath, _, prop = arrow_setup()
        rng = np.random.default_rng(10)
        cases = [
            (prop.dense(), bath_hamiltonian(cfg, bath, 2)),  # the valve's arrow basis
            # complex H and state: a complex basis and contraction
            (make_propagator(random_nambu(rng, 7), random_correlation(rng, 7)),
             random_nambu(rng, 7)),
        ]
        times = np.array([0.0, 1.5, 6.0, 12.25])
        for prop, O in cases:
            series = expectation_series(prop, O, times)
            for i, t in enumerate(times):
                assert series[i] == pytest.approx(
                    expectation(O, evolve(prop, t)), abs=1e-12
                )


class TestHeatCurrent:
    def test_zero_coupling_zero_current(self):
        cfg, bath, arrow, prop = arrow_setup(gamma=0.0)
        trace = heat_current(prop, bath_levels(cfg, bath, 2), np.linspace(0, 20, 30))
        assert np.abs(trace.total).max() == 0.0

    def test_starts_at_zero_for_uncorrelated_state(self):
        cfg, bath, arrow, prop = arrow_setup()
        trace = heat_current(prop, bath_levels(cfg, bath, 2), [0.0])
        assert abs(trace.total[0]) < 1e-12

    def test_rwa_anomalous_identically_zero(self):
        cfg, bath, arrow, prop = arrow_setup(rwa=True)
        trace = heat_current(prop, bath_levels(cfg, bath, 2), np.linspace(0, 20, 101))
        assert np.abs(trace.anomalous).max() == 0.0

    def test_lowrank_equals_dense(self):
        cases = [
            dict(bath_size=25),
            dict(bath_size=25, rwa=True, t_cold=0.3),
            dict(bath_size=12, internal_coupling=InternalCouplingSpec(scale=0.3)),
            dict(bath_size=6, internal_coupling=complex_internal_coupling(6)),
        ]
        times = np.linspace(0, 30, 61)
        for kw in cases:
            cfg, bath, arrow, prop = arrow_setup(**kw)
            got = heat_current(prop, bath_levels(cfg, bath, 2), times)
            H = build_hamiltonian(cfg, bath)
            normal, anomalous = dense_current(
                prop.dense(), H, bath_hamiltonian(cfg, bath, 2), times
            )
            assert np.abs(got.normal - normal).max() < 1e-13
            assert np.abs(got.anomalous - anomalous).max() < 1e-13
            if cfg.rwa:
                assert np.abs(got.anomalous).max() == 0.0

    def test_matches_finite_difference_of_bath_energy(self):
        cfg, bath, arrow, prop = arrow_setup()
        Hb = bath_hamiltonian(cfg, bath, 2)
        dense = prop.dense()
        dt = 1e-4
        for t0 in (0.5, 7.3, 18.0):
            current = heat_current(prop, bath_levels(cfg, bath, 2), [t0]).total[0]
            fd = (
                expectation(Hb, evolve(dense, t0 + dt))
                - expectation(Hb, evolve(dense, t0 - dt))
            ) / (2 * dt)
            assert current == pytest.approx(fd, abs=1e-6)

    def test_rejects_wrong_length_levels(self):
        cfg, bath, arrow, prop = arrow_setup()
        levels = bath_levels(cfg, bath, 2)
        nambu_diagonal = np.concatenate([levels, -levels])
        for bad in (levels[:-1], np.append(levels, 0.5), nambu_diagonal, np.diag(levels)):
            with pytest.raises(ValueError, match="shape"):
                heat_current(prop, bad, [0.0, 1.0])
            with pytest.raises(ValueError, match="shape"):
                window_mean_current(prop, bad, (20.0, 30.0), 0.5)

    def test_complex_or_misshaped_factors_are_refused(self):
        _, _, arrow, prop = arrow_setup()
        assert prop.arrow is arrow
        other_arrow = arrow_setup(bath_size=5)[2]
        factors = dict(arrow=arrow, s=prop.s, P=prop.P, Q=prop.Q, X=prop.X)
        ArrowPropagator(**factors)
        for bad in (
            dict(arrow=other_arrow),
            dict(X=prop.X.astype(complex)),
            dict(P=prop.P + 0j),
            dict(s=prop.s[:-1]),
            dict(s=prop.s[:, None]),
            dict(Q=prop.Q[:, :-1]),
            dict(X=prop.X[None]),
        ):
            with pytest.raises(ValueError, match="real array of shape"):
                ArrowPropagator(**{**factors, **bad})


def assert_equals_grid_mean(prop, levels, window, time_step):
    """The closed form against the current on every sample, then averaged."""
    trace = heat_current(prop, levels, window_times(window, time_step))
    want = steady_state_estimate(trace, window)[0]
    got = window_mean_current(prop, levels, window, time_step)
    assert got == pytest.approx(want, rel=1e-12, abs=0)


# repeated levels, a zero level and a +-level pair (test_majorana); with
# pairing the spectrum holds a zero mode, s ~ 1e-18, so the B12 and B21
# kernels meet w ~ 1e-18 off the diagonal
DEGENERATE = BathRealization(
    frequencies=np.array([[0.5, 0.5, 1.2], [0.0, -1.2, 0.8]]),
    couplings=np.array([[0.3, -0.2, 0.25], [0.15, 0.3, -0.1]]),
)


class TestWindowMeanCurrent:
    @pytest.mark.parametrize("kw, window, time_step", [
        (dict(bath_size=450, gamma=0.2), (20.0, 50.0), 0.05),
        (dict(bath_size=450, gamma=0.2), (200.0, 400.0), 0.5),
        (dict(bath_size=450, gamma=0.2, rwa=True, t_cold=0.3), (20.0, 50.0), 0.05),
        (dict(bath_size=450, gamma=0.2, rwa=True), (200.0, 400.0), 0.5),
        (dict(bath_size=12, internal_coupling=InternalCouplingSpec(scale=0.3)), (20.0, 50.0), 0.05),
        (dict(bath_size=6, internal_coupling=complex_internal_coupling(6)), (20.0, 30.0), 0.5),
    ], ids=["exact-short", "exact-long", "rwa-short", "rwa-long", "real_internal",
            "complex_internal"])
    def test_equals_grid_mean(self, kw, window, time_step):
        cfg, bath, arrow, prop = arrow_setup(**kw)
        levels = bath_levels(cfg, bath, 2)
        assert_equals_grid_mean(prop, levels, window, time_step)

    @pytest.mark.parametrize("rwa", [False, True], ids=["exact", "rwa"])
    @pytest.mark.parametrize("bath_size", [20, 32, 64, 128], ids=["M41", "M65", "M129", "M257"])
    def test_equals_grid_mean_at_chunk_edges(self, bath_size, rwa):
        # M = 2N + 1 inside one chunk of rows, and one row past one, two and
        # four chunks: the triangle's diagonal blocks and a last, one-row chunk
        assert MEAN_CHUNK_ROWS == 64
        cfg, bath, arrow, prop = arrow_setup(bath_size=bath_size, gamma=0.2, rwa=rwa)
        levels = bath_levels(cfg, bath, 2)
        assert_equals_grid_mean(prop, levels, (20.0, 50.0), 0.05)

    @pytest.mark.parametrize("rwa", [False, True], ids=["exact", "rwa"])
    def test_degenerate_and_zero_levels(self, rwa):
        cfg = ValveConfig(bath_size=3, gamma=0.3, t_hot=1.0, t_cold=0.5, rwa=rwa)
        arrow = build_arrow(cfg, DEGENERATE)
        prop = arrow_propagator(arrow, thermal_occupations(cfg, DEGENERATE))
        levels = bath_levels(cfg, DEGENERATE, 2)
        for window, time_step in (((20.0, 50.0), 0.05), ((200.0, 400.0), 0.5)):
            assert_equals_grid_mean(prop, levels, window, time_step)

    def test_near_degenerate_energies(self):
        # two quasiparticle energies 1e-10 apart dominate the mean: the
        # window kernel must keep its relative accuracy at small w
        rng = np.random.default_rng(12)
        s = np.array([1.5, 1.5 - 1e-10, 0.4])
        P, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        e = rng.uniform(-1, 1, size=3)
        levels = np.array([0.0, 0.0, 1.3])
        for rwa in (False, True):
            if rwa:
                P = Q * np.array([1.0, -1.0, 1.0])  # an RWA basis: P = Q sign(l)
            arrow = Arrow(levels=np.array([0.7, 1.0, 1.3]), couplings=np.array([0.2, 0.0, -0.3]),
                          center=1, rwa=rwa)
            prop = ArrowPropagator(arrow=arrow, s=s, P=P, Q=Q, X=(Q.T * e) @ P)
            for window, time_step in (((20.0, 50.0), 0.05), ((200.0, 400.0), 0.05)):
                assert_equals_grid_mean(prop, levels, window, time_step)

    @pytest.mark.parametrize("rwa", [False, True], ids=["exact", "rwa"])
    def test_zero_coupling_is_exactly_zero(self, rwa):
        cfg, bath, arrow, prop = arrow_setup(gamma=0.0, rwa=rwa)
        got = window_mean_current(prop, bath_levels(cfg, bath, 2), (20.0, 50.0), 0.05)
        assert got == 0.0

    def test_sparse_window_rejected(self):
        cfg, bath, arrow, prop = arrow_setup()
        with pytest.raises(ValueError, match="only 5 samples"):
            window_mean_current(prop, bath_levels(cfg, bath, 2), (20.0, 22.0), 0.5)

    def test_aliasing_time_step_is_refused(self):
        cfg, bath, arrow, prop = arrow_setup()
        levels = bath_levels(cfg, bath, 2)
        s_max = prop.s.max()
        bound = np.pi / (2 * s_max)
        window_mean_current(prop, levels, (20.0, 50.0), 0.99 * bound)
        for dt in (bound, 1.0):
            with pytest.raises(ValueError, match=r"s_max.*pi/\(2 s_max\)") as exc:
                window_mean_current(prop, levels, (20.0, 50.0), dt)
            assert f"dt={dt}" in str(exc.value)


class TestSteadyStateEstimate:
    @staticmethod
    def _trace(times, total):
        return CurrentTrace(
            times=times, total=total, normal=total.copy(), anomalous=np.zeros_like(total)
        )

    def test_constant_trace(self):
        times = np.linspace(20, 50, 61)
        mean, std = steady_state_estimate(self._trace(times, np.full(61, 3.25)))
        assert (mean, std) == (3.25, 0.0)

    def test_sinusoid_over_integer_periods_averages_out(self):
        times = np.linspace(20, 50, 3001)
        total = np.sin(2 * np.pi * times / 5)  # 6 full periods on [20, 50]
        mean, std = steady_state_estimate(self._trace(times, total))
        assert abs(mean) < 1e-3
        assert std == pytest.approx(np.sqrt(0.5), rel=1e-3)

    def test_window_subselects(self):
        times = np.linspace(0, 50, 501)
        total = np.where(times < 25, 0.0, 1.0)
        mean, _ = steady_state_estimate(self._trace(times, total), window=(30, 50))
        assert mean == 1.0

    def test_empty_window_rejected(self):
        times = np.linspace(0, 10, 101)
        with pytest.raises(ValueError, match="window"):
            steady_state_estimate(self._trace(times, np.zeros(101)), window=(20, 50))

    def test_sparse_window_rejected(self):
        times = np.linspace(0, 50, 26)
        with pytest.raises(ValueError, match="samples"):
            steady_state_estimate(self._trace(times, np.zeros(26)), window=(40, 50))


def test_window_times_are_the_averaged_samples():
    # np.arange overshoots: its 601st point is 50.000000000000426
    times = window_times((20.0, 50.0), 0.05)
    assert len(times) == 600 == window_sample_count((20.0, 50.0), 0.05)
    assert times[0] == 20.0 and times[-1] <= 50.0


def test_current_trace_consistency_enforced():
    t = np.linspace(0, 1, 5)
    with pytest.raises(ValueError, match="normal"):
        CurrentTrace(times=t, total=np.ones(5), normal=np.zeros(5), anomalous=np.zeros(5))


def test_current_trace_refuses_nan():
    t = np.linspace(0, 1, 5)
    nan = np.full(5, np.nan)
    with pytest.raises(ValueError, match="normal"):
        CurrentTrace(times=t, total=nan, normal=nan, anomalous=nan)
