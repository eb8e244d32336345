import itertools

import numpy as np
import pytest

from heatvalve import (
    BathRealization,
    CouplingDistribution,
    InternalCouplingSpec,
    ValveConfig,
    apply_internal_couplings,
    bath_levels,
    fermi,
    occupation,
    sample_bath,
)
from heatvalve.fock import lift
from heatvalve.valve import hamiltonian_blocks

from reference import (
    bath_hamiltonian,
    build_hamiltonian,
    build_nambu,
    diagonalize,
    evolve,
    expectation,
    initial_correlation,
    make_propagator,
)


def make_config(**kw):
    base = dict(bath_size=4, gamma=0.3, t_hot=1.0, t_cold=0.0, seed=7)
    base.update(kw)
    return ValveConfig(**base)


class TestConfig:
    def test_mode_layout(self):
        cfg = make_config(bath_size=5)
        assert cfg.modes == 11
        assert cfg.center == 5
        assert cfg.bath_slice(1) == slice(0, 5)
        assert cfg.bath_slice(2) == slice(6, 11)

    def test_bad_bath_index(self):
        with pytest.raises(ValueError, match="bath index"):
            make_config().bath_slice(3)

    def test_validation(self):
        with pytest.raises(ValueError, match="bath_size"):
            make_config(bath_size=0)
        with pytest.raises(ValueError, match="gamma"):
            make_config(gamma=-0.1)
        with pytest.raises(ValueError, match="temperatures"):
            make_config(t_cold=-1.0)

    def test_distribution_coerced_from_string(self):
        cfg = make_config(coupling_dist="gaussian")
        assert cfg.coupling_dist is CouplingDistribution.GAUSSIAN


class TestSampleBath:
    def test_zero_gamma_gives_zero_couplings(self):
        bath = sample_bath(make_config(gamma=0.0))
        assert not bath.couplings.any()

    def test_deterministic(self):
        cfg = make_config()
        b1, b2 = sample_bath(cfg), sample_bath(cfg)
        assert np.array_equal(b1.frequencies, b2.frequencies)
        assert np.array_equal(b1.couplings, b2.couplings)

    def test_frequencies_in_band(self):
        bath = sample_bath(make_config(bath_size=500))
        assert bath.frequencies.min() >= 0.0
        assert bath.frequencies.max() <= 2.0

    def test_uniform_second_moment(self):
        # Var of uniform[-a, a] is a^2/3 with a = gamma/sqrt(N)
        cfg = make_config(bath_size=1_000_000, gamma=0.5, seed=1)
        bath = sample_bath(cfg)
        want = cfg.gamma**2 / (3 * cfg.bath_size)
        assert np.mean(bath.couplings**2) == pytest.approx(want, rel=0.01)

    def test_matched_second_moments_across_distributions(self):
        moments = {}
        for dist in CouplingDistribution:
            cfg = make_config(
                bath_size=100_000, gamma=0.4, coupling_dist=dist, seed=2
            )
            moments[dist] = np.mean(sample_bath(cfg).couplings ** 2)
        vals = list(moments.values())
        for a, b in itertools.combinations(vals, 2):
            assert a == pytest.approx(b, rel=0.01)

    def test_equal_distribution_is_deterministic_in_magnitude(self):
        cfg = make_config(coupling_dist="equal", gamma=0.3)
        bath = sample_bath(cfg)
        want = 0.3 / np.sqrt(3 * cfg.bath_size)
        assert np.allclose(bath.couplings, want)


class TestBuildHamiltonian:
    def test_rwa_has_no_pairing(self):
        cfg = make_config(rwa=True)
        H = build_hamiltonian(cfg, sample_bath(cfg))
        assert not H.anomalous_block.any()

    def test_exact_pairing_mirrors_couplings(self):
        cfg = make_config()
        bath = sample_bath(cfg)
        H = build_hamiltonian(cfg, bath)
        delta = H.anomalous_block
        assert np.allclose(delta[cfg.bath_slice(1), cfg.center], bath.couplings[0])
        assert np.allclose(delta[cfg.center, cfg.bath_slice(2)], -bath.couplings[1])

    def test_decoupled_populations_frozen(self):
        cfg = make_config(gamma=0.0, t_hot=0.8, t_cold=0.3)
        bath = sample_bath(cfg)
        H = build_hamiltonian(cfg, bath)
        chi0 = initial_correlation(cfg, bath)
        prop = make_propagator(H, chi0)
        chi_t = evolve(prop, 13.7)
        assert np.abs(chi_t.data - chi0.data).max() < 1e-12

    def test_validates_as_nambu(self):
        cfg = make_config()
        build_hamiltonian(cfg, sample_bath(cfg)).validate()

    def test_bath_size_mismatch(self):
        cfg = make_config(bath_size=3)
        bath = sample_bath(make_config(bath_size=4))
        with pytest.raises(ValueError, match="bath realization"):
            build_hamiltonian(cfg, bath)

    def test_single_bath_mode_many_body_spectrum(self):
        """Lifted spectrum = const + all +-quasienergy sums: the N=1 valve, random complex blocks."""
        cfg = make_config(bath_size=1, gamma=0.4, seed=3)
        rng = np.random.default_rng(13)
        h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        delta = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        for blocks in (hamiltonian_blocks(cfg, sample_bath(cfg)), ((h + h.conj().T) / 2, delta)):
            H = build_nambu(*blocks)
            basis = diagonalize(H)
            eps = basis.eigenvalues[H.modes:]  # positive branch
            ground = H.const_offset - 0.5 * eps.sum()
            want = sorted(
                ground + sum(itertools.compress(eps, bits))
                for bits in itertools.product([0, 1], repeat=H.modes)
            )
            got = np.sort(np.linalg.eigvalsh(lift(*blocks)))
            assert np.abs(got - np.array(want)).max() < 1e-10


class TestBathHamiltonian:
    def test_levels_are_the_nambu_diagonal(self):
        cfg = make_config()
        bath = sample_bath(cfg)
        for a in (1, 2):
            levels = bath_levels(cfg, bath, a)
            assert levels.shape == (cfg.modes,)
            assert np.array_equal(levels[cfg.bath_slice(a)], bath.frequencies[a - 1])
            assert np.count_nonzero(levels) == np.count_nonzero(bath.frequencies[a - 1])
            Hb = bath_hamiltonian(cfg, bath, a).data
            assert np.array_equal(Hb, np.diag(np.concatenate([levels, -levels])))

    def test_supported_only_on_selected_bath(self):
        cfg = make_config()
        bath = sample_bath(cfg)
        Hb = bath_hamiltonian(cfg, bath, 2)
        h = Hb.particle_block
        assert not h[cfg.bath_slice(1), :].any()
        assert not h[cfg.center, :].any()
        assert np.allclose(np.diag(h)[cfg.bath_slice(2)], bath.frequencies[1])

    def test_initial_energy_matches_direct_sum(self):
        cfg = make_config(t_hot=1.0, t_cold=0.5)
        bath = sample_bath(cfg)
        chi0 = initial_correlation(cfg, bath)
        for a in (1, 2):
            want = np.sum(
                bath.frequencies[a - 1]
                * occupation(bath.frequencies[a - 1], cfg.bath_temperature(a))
            )
            got = expectation(bath_hamiltonian(cfg, bath, a), chi0)
            assert got == pytest.approx(want, abs=1e-12)

    def test_cold_bath_at_zero_temperature_is_empty(self):
        cfg = make_config(t_cold=0.0)
        bath = sample_bath(cfg)
        got = expectation(bath_hamiltonian(cfg, bath, 2), initial_correlation(cfg, bath))
        assert got == pytest.approx(0.0, abs=1e-14)

    def test_invalid_bath_index(self):
        cfg = make_config()
        with pytest.raises(ValueError, match="bath index"):
            bath_hamiltonian(cfg, sample_bath(cfg), 0)


class TestInitialCorrelation:
    def test_zero_temperature_vacuum(self):
        cfg = make_config(t_hot=0.0, t_cold=0.0)
        bath = sample_bath(cfg)
        chi = initial_correlation(cfg, bath)
        M = cfg.modes
        assert np.array_equal(chi.data[:M, :M], np.eye(M))
        assert not chi.data[M:, M:].any()

    def test_infinite_temperature_half_filling(self):
        cfg = make_config(t_hot=1e12, t_cold=1e12)
        bath = sample_bath(cfg)
        occ = 1 - np.diag(initial_correlation(cfg, bath).data)[: cfg.modes]
        occ = np.delete(occ, cfg.center)  # central mode stays empty
        assert np.allclose(occ, 0.5, atol=1e-10)

    def test_resonant_mode_occupation(self):
        cfg = make_config(bath_size=1, t_hot=1.0)
        bath = BathRealization(
            frequencies=np.array([[1.0], [1.5]]),
            couplings=np.zeros((2, 1)),
        )
        occ_hot = 1 - initial_correlation(cfg, bath).data[0, 0]
        assert occ_hot == pytest.approx(fermi(1.0), abs=1e-15)
        assert occ_hot == pytest.approx(0.268941, abs=1e-6)

    def test_is_valid_correlation(self):
        cfg = make_config(t_hot=0.9, t_cold=0.2)
        initial_correlation(cfg, sample_bath(cfg)).validate()


# levels and couplings of make_config(internal_coupling=InternalCouplingSpec(scale=0.3))
# after the fold
FOLDED_FREQUENCIES = [
    [0.5377312207711189, 1.457854787465862, 1.5040896234034251, 1.9292428258894914],
    [-0.08328132168244595, 0.6930855507526578, 1.6652313094068145, 2.020732065748594],
]
FOLDED_COUPLINGS = [
    [0.05465023192443402, 0.006559465709344225, 0.11222148991897325, 0.017942937081257482],
    [0.008007343649461136, 0.07514960381567691, 0.0035094037360258895, 0.014664248730281706],
]


class TestInternalCouplings:
    def test_fold_is_pinned(self):
        # the stream, the draw order and the symmetrization that CSV
        # determinism rests on; eigh's last bits vary by LAPACK build
        cfg = make_config(internal_coupling=InternalCouplingSpec(scale=0.3))
        out = apply_internal_couplings(cfg, sample_bath(cfg))
        np.testing.assert_allclose(out.frequencies, FOLDED_FREQUENCIES, rtol=1e-13, atol=0)
        np.testing.assert_allclose(out.couplings, FOLDED_COUPLINGS, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("bath_size,scale", [(4, 0.3), (60, 0.1), (200, 0.4)])
    def test_fold_equals_the_per_bath_fold(self, bath_size, scale):
        # one draw of both baths' matrices and one stacked eigh: bit for bit
        # the fold of each bath in turn, a draw and an eigh at a time
        cfg = make_config(bath_size=bath_size, internal_coupling=InternalCouplingSpec(scale=scale))
        bath = sample_bath(cfg)
        out = apply_internal_couplings(cfg, bath)
        rng = np.random.default_rng([cfg.seed, 0x1C])
        for a in range(2):
            A = rng.normal(scale=scale / np.sqrt(bath_size), size=(bath_size, bath_size))
            evals, U = np.linalg.eigh(np.diag(bath.frequencies[a]) + (A + A.T) / 2)
            assert np.array_equal(out.frequencies[a], evals)
            assert np.array_equal(out.couplings[a], np.abs(U.T @ bath.couplings[a]))

    def test_zero_spec_is_permutation(self):
        cfg = make_config(bath_size=6, internal_coupling=InternalCouplingSpec(scale=0.0))
        bath = sample_bath(cfg)
        out = apply_internal_couplings(cfg, bath)
        for a in range(2):
            assert np.allclose(np.sort(out.frequencies[a]), np.sort(bath.frequencies[a]))
            assert np.allclose(
                np.sort(np.abs(out.couplings[a])), np.sort(np.abs(bath.couplings[a]))
            )

    def test_coupling_norm_preserved(self):
        cfg = make_config(bath_size=40, internal_coupling=InternalCouplingSpec(scale=0.3))
        bath = sample_bath(cfg)
        out = apply_internal_couplings(cfg, bath)
        for a in range(2):
            before = np.sum(np.abs(bath.couplings[a]) ** 2)
            after = np.sum(np.abs(out.couplings[a]) ** 2)
            assert abs(after - before) < 1e-10 * max(before, 1e-30)

    def test_unitary_equivalence_of_spectra(self):
        cfg = make_config(rwa=True, internal_coupling=InternalCouplingSpec(scale=2.0))
        bath = sample_bath(cfg)
        transformed = apply_internal_couplings(cfg, bath)

        # reference: redraw the documented couplings and add them to the untransformed h
        rng = np.random.default_rng([cfg.seed, 0x1C])
        h = build_hamiltonian(cfg, bath).particle_block.copy()
        for which_bath in (1, 2):
            A = rng.normal(scale=2.0 / np.sqrt(4), size=(4, 4))
            h[cfg.bath_slice(which_bath), cfg.bath_slice(which_bath)] += (A + A.T) / 2
        want = np.linalg.eigvalsh(h)
        got = np.linalg.eigvalsh(build_hamiltonian(cfg, transformed).particle_block)
        assert np.abs(got - want).max() < 1e-10

    def test_complex_couplings_rejected(self):
        with pytest.raises(ValueError, match="real"):
            BathRealization(frequencies=np.ones((2, 3)), couplings=np.full((2, 3), 0.1j))

    def test_missing_spec(self):
        # a config without internal couplings folds to itself
        cfg = make_config()
        bath = sample_bath(cfg)
        assert apply_internal_couplings(cfg, bath) is bath
