"""The M x M SVD path of diagonalize against the 2M x 2M eigh path.

A complex copy of a real Nambu matrix takes the eigh path, which serves as
the reference throughout.
"""

import numpy as np
import pytest

from heatvalve import (
    CorrelationMatrix,
    CouplingDistribution,
    InternalCouplingSpec,
    ValveConfig,
    apply_internal_couplings,
    bath_hamiltonian,
    bath_levels,
    build_hamiltonian,
    build_nambu,
    diagonalize,
    evolve,
    heat_current,
    initial_correlation,
    make_propagator,
    observable_rate,
    sample_bath,
)
from heatvalve import fock, nambu
from heatvalve.experiments import simulate_trace
from heatvalve.nambu import NambuMatrix

TIMES = np.linspace(0.0, 30.0, 121)


def as_complex(H: NambuMatrix) -> NambuMatrix:
    return NambuMatrix(modes=H.modes, data=H.data.astype(complex),
                       const_offset=H.const_offset)


def valve(bath_size=40, **kw):
    cfg = ValveConfig(bath_size=bath_size, t_hot=1.0, t_cold=0.0, seed=11, **kw)
    bath = sample_bath(cfg)
    if cfg.internal_coupling is not None:
        bath = apply_internal_couplings(cfg, bath)
    return cfg, bath, build_hamiltonian(cfg, bath), initial_correlation(cfg, bath)


VALVES = [
    pytest.param(dict(gamma=0.3, coupling_dist=dist), id=dist.value)
    for dist in CouplingDistribution
] + [
    pytest.param(dict(gamma=0.0), id="gamma0"),
    pytest.param(dict(gamma=0.3, rwa=True), id="rwa"),
    pytest.param(dict(gamma=0.3, internal_coupling=InternalCouplingSpec(scale=0.2)),
                 id="random_hermitian"),
]


@pytest.mark.parametrize("kw", VALVES)
class TestValveHamiltonians:
    def test_svd_basis_matches_eigh(self, kw):
        cfg, bath, H, _ = valve(**kw)
        basis = diagonalize(H)
        ref = diagonalize(as_complex(H))
        assert basis.paired and not ref.paired
        U, E = basis.transform, basis.eigenvalues
        assert np.isrealobj(U)
        assert np.abs(E - ref.eigenvalues).max() < 1e-13
        assert np.abs((U * E) @ U.T - H.data).max() < 1e-13
        assert np.abs(U.T @ U - np.eye(2 * cfg.modes)).max() < 1e-13

    def test_rotated_initial_state_matches_dense_rotation(self, kw):
        _, _, H, chi0 = valve(**kw)
        prop = make_propagator(H, chi0)
        U = prop.basis.transform
        assert np.abs(prop.rotated_initial - U.T @ chi0.data @ U).max() < 1e-13

    def test_heat_current_matches_dense_and_eigh_paths(self, kw):
        cfg, bath, H, chi0 = valve(**kw)
        levels = bath_levels(cfg, bath, 2)
        prop = make_propagator(H, chi0)
        got = heat_current(prop, H, levels, TIMES)
        ref_H = as_complex(H)
        ref = heat_current(make_propagator(ref_H, chi0), ref_H, levels, TIMES)
        Hb = bath_hamiltonian(cfg, bath, 2)
        dense = np.array([observable_rate(Hb, H, evolve(prop, t)) for t in TIMES])
        assert np.abs(got.total - dense).max() < 1e-13
        for name in ("total", "normal", "anomalous"):
            assert np.abs(getattr(got, name) - getattr(ref, name)).max() < 1e-13


def test_exact_degeneracies_and_zero_modes():
    # repeated levels, a zero level, a +-level pair, and pairing only inside
    # a degenerate pair; without the pairing K is symmetric (eigh branch)
    for pairing in (0.3, 0.0):
        h = np.diag([0.5, 0.5, 0.0, 1.2, -1.2])
        delta = np.zeros((5, 5))
        delta[0, 1] = pairing
        H = build_nambu(h, delta)
        basis = diagonalize(H)
        ref = diagonalize(as_complex(H))
        assert basis.paired
        U, E = basis.transform, basis.eigenvalues
        assert np.abs(E - ref.eigenvalues).max() < 1e-14
        assert np.abs((U * E) @ U.T - H.data).max() < 1e-14
        assert np.abs(U.T @ U - np.eye(10)).max() < 1e-14
        occ = np.array([0.9, 0.2, 0.5, 0.0, 1.0])
        chi0 = CorrelationMatrix(modes=5, data=np.diag(np.concatenate([1 - occ, occ])))
        prop = make_propagator(H, chi0)
        assert np.abs(prop.rotated_initial - U.T @ chi0.data @ U).max() < 1e-14


def test_non_physical_diagonal_state_uses_dense_rotation():
    cfg, bath, H, _ = valve(bath_size=5, gamma=0.3)
    # a + b != 1: the block formula does not apply
    chi0 = CorrelationMatrix(modes=cfg.modes, data=np.diag(np.linspace(0.1, 0.9, 2 * cfg.modes)))
    prop = make_propagator(H, chi0)
    U = prop.basis.transform
    assert prop.basis.paired
    assert np.abs(prop.rotated_initial - U.T @ chi0.data @ U).max() < 1e-14


class TestFallbacks:
    def test_complex_internal_couplings_take_eigh_and_match_fock(self):
        rng = np.random.default_rng(7)
        mats = []
        for _ in range(2):
            A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            mats.append(0.2 * (A + A.conj().T) / 2)
        spec = InternalCouplingSpec(matrices=tuple(mats))
        cfg, bath, H, _ = valve(bath_size=3, gamma=0.6, internal_coupling=spec)
        assert not np.isrealobj(H.data)
        assert not diagonalize(H).paired
        times = np.linspace(0.0, 20.0, 81)
        dev = np.abs(simulate_trace(cfg, times).total - fock.exact_current(cfg, bath, times))
        assert dev.max() < 1e-9

    def test_real_internal_couplings_take_svd_and_match_fock(self):
        spec = InternalCouplingSpec(scale=0.3)
        cfg, bath, H, _ = valve(bath_size=3, gamma=0.6, internal_coupling=spec)
        assert diagonalize(H).paired
        times = np.linspace(0.0, 20.0, 81)
        dev = np.abs(simulate_trace(cfg, times).total - fock.exact_current(cfg, bath, times))
        assert dev.max() < 1e-9

    def test_symmetric_pairing_block_is_not_taken_as_majorana(self):
        # [[h, D], [D, -h]] with D symmetric is Hermitian with a paired
        # spectrum, but h + D does not carry it
        rng = np.random.default_rng(3)
        h = rng.normal(size=(4, 4))
        h = (h + h.T) / 2
        D = rng.normal(size=(4, 4))
        D = (D + D.T) / 2
        H = NambuMatrix(modes=4, data=np.block([[h, D], [D, -h]]))
        svd_energies = np.sort(np.linalg.svd(h + D, compute_uv=False))
        basis = diagonalize(H)
        assert not basis.paired
        assert np.abs(basis.eigenvalues[4:] - svd_energies).max() > 1e-3
        U, E = basis.transform, basis.eigenvalues
        assert np.abs((U * E) @ U.T - H.data).max() < 1e-12

    def test_broken_hole_block_is_refused(self):
        rng = np.random.default_rng(4)
        H = build_nambu(np.diag(rng.uniform(0.5, 1.5, size=4)), rng.normal(size=(4, 4)))
        data = H.data.copy()
        data[4:, 4:] *= 1.5  # -h^T no longer the negated particle block
        with pytest.raises(ValueError, match="particle-hole"):
            diagonalize(NambuMatrix(modes=4, data=data))

    def test_near_structure_takes_eigh(self):
        cfg, bath, H, _ = valve(bath_size=5, gamma=0.3)
        data = H.data.copy()
        M = cfg.modes
        data[M + 1, 1] += 1e-15  # Hermitian nudge below any tolerance
        data[1, M + 1] += 1e-15
        basis = diagonalize(NambuMatrix(modes=M, data=data))
        assert not basis.paired

    def test_probe_catches_bad_svd_basis(self, monkeypatch):
        _, _, H, _ = valve(bath_size=5, gamma=0.3)
        good = nambu._diagonalize_svd

        def corrupted(K):
            evals, U = good(K)
            U[:, [0, 1]] = U[:, [1, 0]]  # mislabel two quasiparticles
            return evals, U

        monkeypatch.setattr(nambu, "_diagonalize_svd", corrupted)
        with pytest.raises(ValueError, match="probe"):
            diagonalize(H)
