import numpy as np
import pytest

from heatvalve import (
    BathRealization,
    ValveConfig,
    arrow_propagator,
    bath_levels,
    build_arrow,
    heat_current,
    sample_bath,
    fermi,
    thermal_occupations,
)
from heatvalve.experiments import simulate_trace
from heatvalve.fock import (
    MAX_MODES,
    exact_current,
    ladder_operators,
    lift,
    thermal_state,
)
from heatvalve.valve import hamiltonian_blocks


def small_valve(**kw):
    base = dict(bath_size=2, gamma=0.3, t_hot=1.0, t_cold=0.0, seed=4)
    base.update(kw)
    cfg = ValveConfig(**base)
    return cfg, sample_bath(cfg)


class TestLadderOperators:
    def test_canonical_anticommutators(self):
        M = 3
        ops = [op.toarray() for op in ladder_operators(M)]
        eye = np.eye(2**M)
        for i in range(M):
            for j in range(M):
                acomm = ops[i] @ ops[j].conj().T + ops[j].conj().T @ ops[i]
                want = eye if i == j else 0 * eye
                assert np.abs(acomm - want).max() < 1e-14
                assert np.abs(ops[i] @ ops[j] + ops[j] @ ops[i]).max() < 1e-14

    def test_size_cap(self):
        with pytest.raises(ValueError, match="capped"):
            ladder_operators(MAX_MODES + 1)


class TestLift:
    def test_single_mode_number_spectrum(self):
        H = lift(np.array([[1.0]]))
        assert np.allclose(H, np.diag([0.0, 1.0]))

    def test_linearity(self):
        rng = np.random.default_rng(0)
        h1 = rng.normal(size=(3, 3))
        h2 = rng.normal(size=(3, 3))
        h1, h2 = (h1 + h1.T) / 2, (h2 + h2.T) / 2
        got = lift(h1 + h2)
        want = lift(h1) + lift(h2)
        assert np.abs(got - want).max() < 1e-12

    def test_size_cap(self):
        with pytest.raises(ValueError, match="capped"):
            lift(np.zeros((13, 13)))


class TestThermalState:
    def test_zero_temperature_vacuum(self):
        cfg, bath = small_valve(t_hot=0.0, t_cold=0.0)
        rho = thermal_state(cfg, bath)
        want = np.zeros((2**cfg.modes, 2**cfg.modes))
        want[0, 0] = 1.0
        assert np.abs(rho - want).max() < 1e-14

    def test_unit_trace(self):
        cfg, bath = small_valve(t_hot=0.7, t_cold=0.2)
        assert thermal_state(cfg, bath).trace() == pytest.approx(1.0, abs=1e-12)

    def test_mode_occupancy_matches_fermi(self):
        cfg, bath = small_valve(t_hot=1.0)
        rho = thermal_state(cfg, bath)
        a0 = ladder_operators(cfg.modes)[0].toarray()
        occ = np.trace(rho @ a0.conj().T @ a0).real
        assert occ == pytest.approx(fermi(bath.frequencies[0][0]), abs=1e-12)


class TestExactCurrent:
    def test_zero_coupling(self):
        cfg, bath = small_valve(gamma=0.0)
        vals = exact_current(cfg, bath, np.linspace(0, 10, 11))
        assert np.abs(vals).max() < 1e-12

    def test_engine_equivalence_exact_kind(self):
        cfg, bath = small_valve(gamma=0.3)
        times = np.linspace(0, 20, 81)
        arrow = build_arrow(cfg, bath)
        prop = arrow_propagator(arrow, thermal_occupations(cfg, bath))
        trace = heat_current(prop, bath_levels(cfg, bath, 2), times)
        dev = np.abs(trace.total - exact_current(cfg, bath, times)).max()
        assert dev < 1e-9

    @pytest.mark.parametrize("rwa", [False, True], ids=["exact", "rwa"])
    def test_complex_coupling_phases_are_a_gauge(self, rwa):
        # couplings g e^{i phi} in hopping and pairing alike, built by hand
        # and lifted, carry the current of the real valve on |g|
        cfg, bath = small_valve(bath_size=3, gamma=0.5, rwa=rwa, t_cold=0.3)
        real = BathRealization(frequencies=bath.frequencies, couplings=np.abs(bath.couplings))
        phases = np.random.default_rng(5).uniform(0, 2 * np.pi, size=bath.couplings.shape)
        M, c = cfg.modes, cfg.center
        g = np.zeros(M, dtype=complex)
        for a in (1, 2):
            g[cfg.bath_slice(a)] = real.couplings[a - 1] * np.exp(1j * phases[a - 1])
        h = np.diag(build_arrow(cfg, real).levels).astype(complex)
        h[:, c] += g
        h[c] += g.conj()
        delta = None
        if not rwa:
            delta = np.zeros((M, M), dtype=complex)
            delta[:, c] = g
            delta = delta - delta.T
        H = lift(h, delta)
        Hb = lift(np.diag(bath_levels(cfg, real, 2)))
        evals, S = np.linalg.eigh(H)
        rho = S.conj().T @ thermal_state(cfg, real) @ S
        K = S.conj().T @ (Hb @ H - H @ Hb) @ S
        times = np.linspace(0, 20, 81)
        fock_current = []
        for t in times:
            z = np.exp(-1j * evals * t)
            fock_current.append((-1j * np.sum((z[:, None] * rho * z.conj()) * K.T)).real)
        engine = simulate_trace(cfg, times, bath=real).total
        assert np.abs(engine - fock_current).max() < 1e-9

    def test_rwa_conserves_particle_number(self):
        cfg, bath = small_valve(rwa=True, t_hot=1.0, t_cold=0.5)
        H = lift(*hamiltonian_blocks(cfg, bath))
        ops = ladder_operators(cfg.modes)
        n_op = sum((a.conj().T @ a).toarray() for a in ops)
        rho0 = thermal_state(cfg, bath)
        evals, S = np.linalg.eigh(H)
        n0 = np.trace(rho0 @ n_op).real
        for t in (1.0, 8.5, 20.0):
            U = S @ np.diag(np.exp(-1j * evals * t)) @ S.conj().T
            rho_t = U @ rho0 @ U.conj().T
            assert abs(np.trace(rho_t @ n_op).real - n0) < 1e-10

    def test_size_cap(self):
        cfg = ValveConfig(bath_size=6, gamma=0.1, t_hot=1.0, t_cold=0.0)
        with pytest.raises(ValueError, match="capped"):
            exact_current(cfg, sample_bath(cfg), [0.0])
