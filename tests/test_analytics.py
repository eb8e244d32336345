import math

import numpy as np
import pytest

from heatvalve import (
    UniformBathSpec,
    anomalous_current_continuum,
    anomalous_current_discrete,
    empirical_gamma,
    fermi,
    landauer_current,
    occupation,
    self_energy,
    spectral_density,
    transmission,
    weak_coupling_current,
)


def spec_for(gamma, n=1200):
    return UniformBathSpec.from_coupling_scale(gamma, n)


class TestFermi:
    def test_zero(self):
        assert fermi(0.0) == 0.5

    def test_plus_infinity(self):
        assert fermi(np.inf) == 0.0
        assert fermi(-np.inf) == 1.0

    def test_unit_argument(self):
        assert fermi(1.0) == pytest.approx(1 / (math.e + 1), abs=1e-15)

    def test_array_input(self):
        x = np.array([-2.0, 0.0, 3.0])
        assert np.allclose(fermi(x), 1 / (np.exp(x) + 1))


class TestOccupation:
    def test_zero_temperature_step(self):
        assert occupation(1.0, 0.0) == 0.0
        assert occupation(-1.0, 0.0) == 1.0
        assert occupation(0.0, 0.0) == 0.5

    def test_infinite_temperature_limit(self):
        assert occupation(1.7, 1e12) == pytest.approx(0.5, abs=1e-10)

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError, match="temperature"):
            occupation(1.0, -0.1)


class TestSpectralDensity:
    def test_zero_coupling(self):
        assert spectral_density(UniformBathSpec(100, 0.0)) == 0.0

    def test_uniform_second_moment(self):
        # 2*pi * (N/2) * gamma^2/(3N) = pi*gamma^2/3 for any N
        for n in (10, 1200):
            assert spectral_density(spec_for(0.3, n)) == pytest.approx(
                np.pi * 0.09 / 3, rel=1e-14
            )

    def test_reference_value(self):
        assert spectral_density(spec_for(0.1)) == pytest.approx(0.010472, abs=1e-6)


class TestSelfEnergy:
    def test_zero_at_center(self):
        assert self_energy(spec_for(0.2), 1.0) == 0.0

    def test_odd_around_center(self):
        spec = spec_for(0.2)
        for x in (0.1, 0.4, 0.9):
            assert self_energy(spec, 1 - x) == pytest.approx(
                -self_energy(spec, 1 + x), rel=1e-12
            )

    def test_negative_below_center(self):
        assert self_energy(spec_for(0.2), 0.5) < 0

    @pytest.mark.parametrize("omega", [0.0, 2.0, -0.5, 2.5])
    def test_band_edges_rejected(self, omega):
        with pytest.raises(ValueError, match="band"):
            self_energy(spec_for(0.2), omega)


class TestTransmission:
    def test_resonant_unit_transmission(self):
        spec = spec_for(0.3)
        assert transmission(spec, spec, 1.0) == 1.0

    def test_vanishes_without_second_bath(self):
        spec = spec_for(0.3)
        dead = UniformBathSpec(1200, 0.0)
        assert transmission(spec, dead, 0.8) == 0.0

    def test_off_resonance_value(self):
        spec = spec_for(0.2)
        got = transmission(spec, spec, 1.1)
        # independent scalar evaluation of the same formula
        g = np.pi * 0.04 / 3
        sigma = 2 * (-(g / (2 * np.pi)) * math.log(2 / 1.1 - 1))
        want = g * g / ((1.1 - 1.0 - sigma) ** 2 + g**2)
        assert got < 1.0
        assert got == pytest.approx(want, rel=1e-12)


class TestLandauer:
    def test_equal_temperatures(self):
        spec = spec_for(0.3)
        assert landauer_current(spec, spec, 0.7, 0.7) == 0.0

    def test_zero_coupling(self):
        dead = UniformBathSpec(1200, 0.0)
        assert landauer_current(dead, spec_for(0.3), 1.0, 0.0) == 0.0

    def test_antisymmetric_in_temperatures(self):
        spec = spec_for(0.2)
        fwd = landauer_current(spec, spec, 1.0, 0.0)
        bwd = landauer_current(spec, spec, 0.0, 1.0)
        assert fwd > 0
        assert bwd == pytest.approx(-fwd, rel=1e-8)

    def test_weak_coupling_limit(self):
        spec = spec_for(0.01)
        g = spectral_density(spec)
        full = landauer_current(spec, spec, 1.0, 0.0)
        weak = weak_coupling_current(g, g, 1.0, 0.0)
        assert full == pytest.approx(weak, rel=1e-3)


class TestWeakCoupling:
    def test_zero_when_decoupled(self):
        assert weak_coupling_current(0.0, 0.3, 1.0, 0.0) == 0.0
        assert weak_coupling_current(0.0, 0.0, 1.0, 0.0) == 0.0

    def test_symmetric_reduces_to_half(self):
        g = 0.02
        df = fermi(1.0)  # T1=1, T2=0 at omega0=1
        assert weak_coupling_current(g, g, 1.0, 0.0) == pytest.approx(
            g / 2 * df, rel=1e-14
        )

    def test_reference_value(self):
        g = spectral_density(spec_for(0.1))
        assert weak_coupling_current(g, g, 1.0, 0.0) == pytest.approx(
            1.4082e-3, abs=1e-7
        )


class TestAnomalousTransient:
    def test_zero_at_t0(self):
        rng = np.random.default_rng(0)
        w = rng.uniform(0, 2, size=50)
        assert anomalous_current_discrete(w, 0.0, 1e-4, 0.0) == 0.0
        assert anomalous_current_continuum(spec_for(0.1), 0.0, 0.0) == 0.0

    def test_infinite_temperature_halves_amplitude(self):
        rng = np.random.default_rng(1)
        w = rng.uniform(0, 2, size=50)
        t = np.linspace(0.1, 10, 40)
        cold = anomalous_current_discrete(w, 0.0, 1e-4, t)
        hot = anomalous_current_discrete(w, 1e12, 1e-4, t)
        assert np.allclose(hot, cold / 2, atol=1e-12)

    def test_discrete_converges_to_continuum(self):
        # O(1/sqrt(N)) sampling error: 5% RMS at N = 1e4
        n = 10_000
        rng = np.random.default_rng(2)
        w = rng.uniform(0, 2, size=n)
        spec = spec_for(0.1, n)
        t = np.linspace(0.25, 20, 80)
        disc = anomalous_current_discrete(w, 0.0, spec.mean_square_coupling, t)
        cont = np.array(
            [anomalous_current_continuum(spec, 0.0, ti) for ti in t]
        )
        rms = np.sqrt(np.mean((disc - cont) ** 2)) / np.sqrt(np.mean(cont**2))
        assert rms < 0.05

    def test_amplitude_decays(self):
        spec = spec_for(0.1)

        def rms(lo, hi):
            t = np.linspace(lo, hi, 30)
            vals = [anomalous_current_continuum(spec, 0.0, ti) for ti in t]
            return np.sqrt(np.mean(np.square(vals)))

        assert rms(40, 50) < rms(0.1, 10)


class TestEmpiricalGamma:
    def test_matches_flat_band_density(self):
        from heatvalve import ValveConfig, sample_bath

        cfg = ValveConfig(
            bath_size=100_000, gamma=0.1, t_hot=1.0, t_cold=0.0,
            coupling_dist="equal", seed=11,
        )
        bath = sample_bath(cfg)
        got = empirical_gamma(bath.frequencies[0], bath.couplings[0], 1.0)
        assert got == pytest.approx(np.pi * 0.01 / 3, rel=0.03)

    def test_empty_window(self):
        assert empirical_gamma(np.array([0.1]), np.array([1.0]), 1.0) == 0.0

    def test_complex_couplings_count_by_modulus(self):
        # internal couplings with complex matrices rotate the couplings complex
        freqs = np.array([0.95, 1.02, 1.05, 1.4])
        g = np.array([0.1j, 0.1, (0.03 - 0.04j), 0.2j])
        want = empirical_gamma(freqs, np.abs(g), 1.0)
        assert empirical_gamma(freqs, g, 1.0) == pytest.approx(want, rel=1e-15)
        assert want == pytest.approx(2 * np.pi * 0.0225 / 0.2, rel=1e-12)
