import numpy as np
import pytest

from heatvalve import (
    CorrelationMatrix,
    build_nambu,
    diagonalize,
    expectation,
    observable_rate,
)
from heatvalve.nambu import NambuMatrix, _ph_transpose, ph_swap

from conftest import random_correlation, random_nambu


class TestBuild:
    def test_single_mode(self):
        H = build_nambu(np.array([[1.0]]))
        assert np.allclose(H.data, np.diag([1.0, -1.0]))
        assert H.const_offset == 0.5

    def test_null_operator(self):
        H = build_nambu(np.zeros((3, 3)))
        assert not H.data.any()
        assert H.const_offset == 0.0

    def test_invariants_hold_for_random_input(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            random_nambu(rng, 4).validate()

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            build_nambu(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_pairing_block_antisymmetrized(self):
        H = build_nambu(np.zeros((2, 2)), np.array([[1.0, 2.0], [0.0, 3.0]]))
        delta = H.anomalous_block
        assert np.allclose(delta, -delta.T)
        assert delta[0, 1] == 1.0  # (2 - 0)/2


class TestDiagonalize:
    def test_single_free_mode(self):
        basis = diagonalize(build_nambu(np.array([[1.0]])))
        assert np.allclose(basis.eigenvalues, [-1.0, 1.0])

    def test_zero_hamiltonian(self):
        basis = diagonalize(build_nambu(np.zeros((2, 2))))
        assert np.allclose(basis.eigenvalues, 0.0)

    def test_two_mode_hopping(self):
        g = 0.3
        basis = diagonalize(build_nambu(np.array([[0.0, g], [g, 0.0]])))
        assert np.allclose(np.sort(basis.eigenvalues), [-g, -g, g, g])

    def test_unitarity_and_roundtrip(self):
        rng = np.random.default_rng(1)
        H = random_nambu(rng, 6)
        basis = diagonalize(H)
        U, D = basis.transform, basis.eigenvalues
        assert np.abs(U.conj().T @ U - np.eye(12)).max() < 1e-10
        recon = U @ np.diag(D) @ U.conj().T
        assert np.abs(recon - H.data).max() < 1e-10 * np.abs(H.data).max()

    def test_spectrum_pairs(self):
        rng = np.random.default_rng(2)
        ev = diagonalize(random_nambu(rng, 5)).eigenvalues
        assert np.abs(ev + ev[::-1]).max() < 1e-10

    def test_nan_is_refused(self):
        # NaN > tol is False: the pairing check must not let it through
        data = np.diag([1.0, 2.0, -1.0, -2.0])
        data[0, 0] = np.nan
        with pytest.raises(ValueError, match="pairing residual nan"):
            diagonalize(NambuMatrix(modes=2, data=data))

    def test_eigh_spectrum_is_paired_exactly(self):
        # the 2M eigh spectrum of a complex H is stored paired
        H = random_nambu(np.random.default_rng(3), 6)
        ev = diagonalize(H).eigenvalues
        assert np.array_equal(ev, -ev[::-1])
        assert np.all(np.diff(ev) >= 0)
        assert np.abs(ev - np.linalg.eigvalsh(H.data)).max() < 1e-12


class TestExpectation:
    def test_empty_mode_number_operator(self):
        M = 3
        h = np.zeros((M, M))
        h[1, 1] = 1.0
        n_op = build_nambu(h)
        chi = CorrelationMatrix(modes=M, data=np.diag([1.0] * M + [0.0] * M))
        assert expectation(n_op, chi) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("f", [0.0, 0.3, 1.0])
    def test_single_mode_energy(self, f):
        H = build_nambu(np.array([[1.0]]))
        chi = CorrelationMatrix(modes=1, data=np.diag([1 - f, f]))
        assert expectation(H, chi) == pytest.approx(f, abs=1e-14)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        M = 4
        O1, O2 = random_nambu(rng, M), random_nambu(rng, M)
        chi = random_correlation(rng, M)
        a, b = rng.normal(size=2)
        combined = build_nambu(
            a * O1.particle_block + b * O2.particle_block,
            a * O1.anomalous_block + b * O2.anomalous_block,
        )
        lhs = expectation(combined, chi)
        rhs = a * expectation(O1, chi) + b * expectation(O2, chi)
        # const offsets differ between the two routes; compare offset-free
        lhs -= combined.const_offset
        rhs -= a * O1.const_offset + b * O2.const_offset
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_dimension_mismatch(self):
        chi = CorrelationMatrix(modes=1, data=np.diag([1.0, 0.0]))
        with pytest.raises(ValueError, match="mismatch"):
            expectation(build_nambu(np.zeros((2, 2))), chi)


class TestObservableRate:
    def test_energy_is_conserved(self):
        rng = np.random.default_rng(4)
        H = random_nambu(rng, 5)
        chi = random_correlation(rng, 5)
        assert observable_rate(H, H, chi) == 0.0

    def test_decoupled_blocks_commute(self):
        hA = np.diag([1.0, 0.0, 0.0])
        hB = np.diag([0.0, 2.0, 3.0])
        rng = np.random.default_rng(5)
        chi = random_correlation(rng, 3)
        assert observable_rate(build_nambu(hA), build_nambu(hB), chi) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_uncorrelated_initial_state_gives_zero(self):
        from heatvalve import ValveConfig, bath_hamiltonian, build_hamiltonian
        from heatvalve import initial_correlation, sample_bath

        cfg = ValveConfig(bath_size=5, gamma=0.1, t_hot=1.0, t_cold=0.0, seed=9)
        bath = sample_bath(cfg)
        rate = observable_rate(
            bath_hamiltonian(cfg, bath, 2),
            build_hamiltonian(cfg, bath),
            initial_correlation(cfg, bath),
        )
        assert rate == pytest.approx(0.0, abs=1e-12)


def test_correlation_validate_catches_bad_trace():
    chi = CorrelationMatrix(modes=1, data=np.diag([0.7, 0.7]))
    with pytest.raises(ValueError, match="trace"):
        chi.validate()


def test_ph_swap_is_involution():
    X = ph_swap(4)
    assert np.array_equal(X @ X, np.eye(8))


def test_ph_transpose_equals_ph_swap_products():
    rng = np.random.default_rng(11)
    for modes in (1, 3, 8):
        A = rng.normal(size=(2 * modes,) * 2) + 1j * rng.normal(size=(2 * modes,) * 2)
        X = ph_swap(modes)
        assert np.array_equal(_ph_transpose(A), X @ A.T @ X)


def test_particle_hole_broken_matrices_are_rejected():
    X = ph_swap(2)
    H = build_nambu(np.array([[0.4, 0.1], [0.1, 0.9]]), np.array([[0.0, 0.3], [0.0, 0.0]]))
    data = H.data.copy()
    data[2:, 2:] *= 1.5  # hole block no longer -h^T
    broken_H = NambuMatrix(modes=2, data=data)
    assert np.abs(data + X @ data.T @ X).max() > 0.1
    with pytest.raises(ValueError, match="particle-hole"):
        broken_H.validate()
    # Hermitian, trace M and spectrum in [0, 1], but hole occupations swapped
    chi = np.diag([0.7, 0.4, 0.6, 0.3])
    assert np.abs(chi + X @ chi.T @ X - np.eye(4)).max() > 0.1
    with pytest.raises(ValueError, match="particle-hole"):
        CorrelationMatrix(modes=2, data=chi).validate()
