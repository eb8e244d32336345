import numpy as np
import pytest
from scipy.linalg import expm

from heatvalve import (
    CurrentTrace,
    InternalCouplingSpec,
    Propagator,
    ValveConfig,
    apply_internal_couplings,
    bath_hamiltonian,
    bath_levels,
    build_hamiltonian,
    build_nambu,
    evolve,
    expectation,
    expectation_series,
    heat_current,
    initial_correlation,
    make_propagator,
    observable_rate,
    sample_bath,
    steady_state_estimate,
)
from heatvalve.nambu import NambuMatrix

from conftest import random_correlation, random_nambu


def valve_setup(**kw):
    base = dict(bath_size=6, gamma=0.3, t_hot=1.0, t_cold=0.0, seed=5)
    base.update(kw)
    cfg = ValveConfig(**base)
    bath = sample_bath(cfg)
    if cfg.internal_coupling is not None:
        bath = apply_internal_couplings(cfg, bath)
    H = build_hamiltonian(cfg, bath)
    chi0 = initial_correlation(cfg, bath)
    return cfg, bath, H, chi0


def complex_internal_coupling(bath_size, scale=0.2, seed=8):
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(2):
        A = rng.normal(size=(bath_size, bath_size)) + 1j * rng.normal(size=(bath_size, bath_size))
        mats.append(scale * (A + A.conj().T) / (2 * np.sqrt(bath_size)))
    return InternalCouplingSpec(matrices=tuple(mats))


def block_parts(H: NambuMatrix) -> tuple[NambuMatrix, NambuMatrix]:
    """H with its pairing blocks zeroed, and H with only its pairing blocks."""
    M = H.modes
    normal = H.data.copy()
    normal[:M, M:] = 0.0
    normal[M:, :M] = 0.0
    return (NambuMatrix(modes=M, data=normal),
            NambuMatrix(modes=M, data=H.data - normal))


def dense_current(prop, H, Hb, times):
    """(normal, anomalous) from chi(t) rebuilt densely at every time."""
    Hn, Ha = block_parts(H)
    chis = [evolve(prop, t) for t in times]
    return (np.array([observable_rate(Hb, Hn, chi) for chi in chis]),
            np.array([observable_rate(Hb, Ha, chi) for chi in chis]))


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
        cfg, bath, H, chi0 = valve_setup()
        rng = np.random.default_rng(10)
        cases = [
            (H, chi0, bath_hamiltonian(cfg, bath, 2)),  # real H: SVD basis
            # complex H and state: eigh basis and a complex contraction
            (random_nambu(rng, 7), random_correlation(rng, 7), random_nambu(rng, 7)),
        ]
        times = np.array([0.0, 1.5, 6.0, 12.25])
        for H, chi0, O in cases:
            prop = make_propagator(H, chi0)
            assert prop.basis.paired == np.isrealobj(H.data)
            series = expectation_series(prop, O, times)
            for i, t in enumerate(times):
                assert series[i] == pytest.approx(
                    expectation(O, evolve(prop, t)), abs=1e-12
                )


class TestHeatCurrent:
    def test_zero_coupling_zero_current(self):
        cfg, bath, H, chi0 = valve_setup(gamma=0.0)
        prop = make_propagator(H, chi0)
        trace = heat_current(prop, H, bath_levels(cfg, bath, 2), np.linspace(0, 20, 30))
        assert np.abs(trace.total).max() == 0.0

    def test_starts_at_zero_for_uncorrelated_state(self):
        cfg, bath, H, chi0 = valve_setup()
        prop = make_propagator(H, chi0)
        trace = heat_current(prop, H, bath_levels(cfg, bath, 2), [0.0])
        assert abs(trace.total[0]) < 1e-12

    def test_rwa_anomalous_identically_zero(self):
        cfg, bath, H, chi0 = valve_setup(rwa=True)
        prop = make_propagator(H, chi0)
        trace = heat_current(prop, H, bath_levels(cfg, bath, 2), np.linspace(0, 20, 101))
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
            cfg, bath, H, chi0 = valve_setup(**kw)
            prop = make_propagator(H, chi0)
            assert prop.basis.paired == np.isrealobj(H.data)
            got = heat_current(prop, H, bath_levels(cfg, bath, 2), times)
            normal, anomalous = dense_current(prop, H, bath_hamiltonian(cfg, bath, 2), times)
            assert np.abs(got.normal - normal).max() < 1e-13
            assert np.abs(got.anomalous - anomalous).max() < 1e-13
            if cfg.rwa:
                assert np.abs(got.anomalous).max() == 0.0

    def test_complex_state_on_real_basis(self):
        cfg, bath, H, _ = valve_setup()
        chi0 = random_correlation(np.random.default_rng(7), cfg.modes)
        prop = make_propagator(H, chi0)
        assert prop.basis.paired and not np.isrealobj(prop.rotated_initial)
        times = np.linspace(0, 10, 21)
        got = heat_current(prop, H, bath_levels(cfg, bath, 2), times)
        normal, anomalous = dense_current(prop, H, bath_hamiltonian(cfg, bath, 2), times)
        assert np.abs(got.normal - normal).max() < 1e-13
        assert np.abs(got.anomalous - anomalous).max() < 1e-13

    def test_matches_finite_difference_of_bath_energy(self):
        cfg, bath, H, chi0 = valve_setup()
        prop = make_propagator(H, chi0)
        Hb = bath_hamiltonian(cfg, bath, 2)
        dt = 1e-4
        for t0 in (0.5, 7.3, 18.0):
            current = heat_current(prop, H, bath_levels(cfg, bath, 2), [t0]).total[0]
            fd = (
                expectation(Hb, evolve(prop, t0 + dt))
                - expectation(Hb, evolve(prop, t0 - dt))
            ) / (2 * dt)
            assert current == pytest.approx(fd, abs=1e-6)

    def test_rejects_wrong_length_levels(self):
        cfg, bath, H, chi0 = valve_setup()
        prop = make_propagator(H, chi0)
        levels = bath_levels(cfg, bath, 2)
        nambu_diagonal = np.concatenate([levels, -levels])
        for bad in (levels[:-1], np.append(levels, 0.5), nambu_diagonal, np.diag(levels)):
            with pytest.raises(ValueError, match="shape"):
                heat_current(prop, H, bad, [0.0, 1.0])

    def test_lowrank_refuses_dense_commutator(self):
        rng = np.random.default_rng(6)
        H = random_nambu(rng, 8)
        chi0 = random_correlation(rng, 8)
        levels = rng.uniform(0.1, 2.0, size=8)
        prop = make_propagator(H, chi0)
        with pytest.raises(ValueError, match="apply_internal_couplings"):
            heat_current(prop, H, levels, [1.0])

    def test_refuses_unfolded_internal_couplings(self):
        cfg, bath, H, chi0 = valve_setup()
        sl = cfg.bath_slice(2)
        h = H.particle_block.copy()
        h[sl, sl] += np.full((cfg.bath_size, cfg.bath_size), 0.05)
        H_unfolded = build_nambu(h, H.anomalous_block)
        prop = make_propagator(H_unfolded, chi0)
        with pytest.raises(ValueError, match="apply_internal_couplings"):
            heat_current(prop, H_unfolded, bath_levels(cfg, bath, 2), [1.0])

    def test_spurious_real_part_is_refused(self):
        cfg, bath, H, chi0 = valve_setup()
        levels = bath_levels(cfg, bath, 2)
        Hc = NambuMatrix(modes=H.modes, data=H.data.astype(complex))
        skew = np.random.default_rng(9).normal(scale=0.1, size=(2 * cfg.modes,) * 2)
        for ham in (H, Hc):
            prop = make_propagator(ham, chi0)
            assert prop.basis.paired == (ham is H)
            heat_current(prop, ham, levels, [0.5, 3.0])
            # a non-Hermitian chi gives tr(chi [H_bath, H]) a real part
            bad = Propagator(basis=prop.basis, rotated_initial=prop.rotated_initial + skew)
            with pytest.raises(ValueError, match="spurious real"):
                heat_current(bad, ham, levels, [0.5, 3.0])


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


def test_current_trace_consistency_enforced():
    t = np.linspace(0, 1, 5)
    with pytest.raises(ValueError, match="normal"):
        CurrentTrace(times=t, total=np.ones(5), normal=np.zeros(5), anomalous=np.zeros(5))
