import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

from heatvalve import analytics
from heatvalve import (
    ValveConfig,
    anomalous_current_continuum,
    anomalous_current_discrete,
    empirical_gamma,
    fermi,
    heisenberg_time,
    landauer_current,
    levels_per_linewidth,
    occupation,
    relaxation_time,
    sample_bath,
    self_energy,
    spectral_density,
    transmission,
    weak_coupling_current,
)


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

    def test_overflow_is_silent(self):
        # e^800 overflows a float; the limit is exact and no RuntimeWarning is raised
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fermi(800.0) == 0.0
            assert fermi(-800.0) == 1.0

    def test_within_one_ulp_of_exact(self):
        # 1/(1 + e^x) in 40-digit decimal arithmetic, rounded once to a float
        x = np.concatenate([np.linspace(-40, 40, 801), np.linspace(-700, 700, 701)])
        with localcontext() as ctx:
            ctx.prec = 40
            want = np.array([float(1 / (1 + Decimal(v).exp())) for v in x])
        np.testing.assert_array_max_ulp(fermi(x), want, maxulp=1)


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
        assert spectral_density(0.0) == 0.0

    def test_uniform_second_moment(self):
        # 2*pi * (N/2) * gamma^2/(3N) = pi*gamma^2/3 for any N
        for n in (10, 1200):
            assert spectral_density(0.3) == pytest.approx(
                2 * np.pi * (n / 2) * (0.09 / (3 * n)), rel=1e-14
            )
        assert spectral_density(0.3) == pytest.approx(np.pi * 0.09 / 3, rel=1e-14)

    def test_reference_value(self):
        assert spectral_density(0.1) == pytest.approx(0.010472, abs=1e-6)

    def test_overflow_is_named(self):
        # pi gamma^2 leaves the float range just above gamma = 7.56e153
        assert spectral_density(7.5e153) == np.pi * 7.5e153**2 / 3
        for gamma in (7.6e153, -1e200, 1e200):
            with pytest.raises(ValueError, match=r"gamma\^2 overflows"):
                spectral_density(gamma)


class TestSelfEnergy:
    def test_zero_at_center(self):
        assert self_energy(0.2, 1.0) == 0.0

    def test_odd_around_center(self):
        for x in (0.1, 0.4, 0.9):
            assert self_energy(0.2, 1 - x) == pytest.approx(
                -self_energy(0.2, 1 + x), rel=1e-12
            )

    def test_negative_below_center(self):
        assert self_energy(0.2, 0.5) < 0

    @pytest.mark.parametrize("omega", [0.0, 2.0, -0.5, 2.5])
    def test_band_edges_rejected(self, omega):
        with pytest.raises(ValueError, match="band"):
            self_energy(0.2, omega)

    def test_band_is_the_sampled_band(self):
        lo, hi = 0.0, analytics.BAND_TOP
        freqs = sample_bath(ValveConfig(bath_size=2000, gamma=0.2, t_hot=1.0, t_cold=0.0)).frequencies
        assert lo <= freqs.min() < lo + 0.01 and hi - 0.01 < freqs.max() <= hi
        for w in (0.3, 1.0, 1.7):
            assert self_energy(0.2, w) == pytest.approx(
                -spectral_density(0.2) / (2 * np.pi) * np.log((hi - w) / (w - lo)),
                rel=1e-12, abs=1e-18,
            )


class TestTransmission:
    def test_resonant_unit_transmission(self):
        assert transmission(0.3, 1.0) == 1.0

    def test_vanishes_without_second_bath(self):
        # gamma = 0: neither bath is coupled
        assert transmission(0.0, 0.8) == 0.0

    def test_resonance_at_vanishing_coupling(self):
        # Gamma = pi gamma^2/3 is 1e-200 at gamma = 1e-100, and Gamma^2 underflows
        # to 0: the resonance is 1 for any Gamma > 0, and 0 only at Gamma = 0
        assert transmission(1e-100, 1.0) == 1.0
        assert transmission(0.0, 1.0) == 0.0
        # off resonance x^2 overflows, and |tau|^2 is 0 without a warning
        assert transmission(1e-100, 1.1) == 0.0
        assert transmission(1e-160, 0.9) == 0.0

    def test_off_resonance_value(self):
        got = transmission(0.2, 1.1)
        # independent scalar evaluation of the same formula
        g = np.pi * 0.04 / 3
        sigma = 2 * (-(g / (2 * np.pi)) * math.log(2 / 1.1 - 1))
        want = g * g / ((1.1 - 1.0 - sigma) ** 2 + g**2)
        assert got < 1.0
        assert got == pytest.approx(want, rel=1e-12)


class TestLandauer:
    def test_equal_temperatures(self):
        assert landauer_current(0.3, 0.7, 0.7) == 0.0

    def test_zero_coupling(self):
        assert landauer_current(0.0, 1.0, 0.0) == 0.0

    def test_antisymmetric_in_temperatures(self):
        fwd = landauer_current(0.2, 1.0, 0.0)
        bwd = landauer_current(0.2, 0.0, 1.0)
        assert fwd > 0
        assert bwd == pytest.approx(-fwd, rel=1e-8)

    def test_weak_coupling_limit(self):
        g = spectral_density(0.01)
        full = landauer_current(0.01, 1.0, 0.0)
        weak = weak_coupling_current(g, g, 1.0, 0.0)
        assert full == pytest.approx(weak, rel=1e-3)


# (1/2pi) int |tau|^2 w [f1 - f2] dw over (0, 2) by mpmath.quad at 30 digits
# (40 digits agree), for the double values of gamma and T; the band split at
# 1 -+ 10^-k, k = 1..12, around the centre peak and at 10^-k, k = 1..7, for
# T < 0.1; rounded to the nearest double.
LANDAUER_REFERENCE = {
    (0.02, (1.0, 0.0)): 5.6318537946154356e-05,
    (0.02, (0.5, 0.2)): 2.3557897520806138e-05,
    (0.1, (1.0, 0.0)): 1.4029107467186538e-03,
    (0.1, (0.5, 0.2)): 5.85247419685542e-04,
    (0.4, (1.0, 0.0)): 2.1184554909269886e-02,
    (0.4, (0.5, 0.2)): 8.424315345562336e-03,
    (0.1, (1e-3, 0.0)): 1.5120546936679044e-11,
    (0.003, (1.0, 0.0)): 1.2673523269744134e-06,
    (0.001, (1.0, 0.0)): 1.4081734630170262e-07,
}


# the same integral at 40 digits, band split at 1 -+ 10^-k, k = 1..24, for
# couplings whose linewidth Gamma = pi gamma^2/3 is 1e-16 to 1e-10
LANDAUER_SMALL_REFERENCE = {
    (1e-5, (1.0, 0.0)): 1.4081739893173211e-11,
    (1e-5, (0.5, 0.2)): 5.891013546545511e-12,
    (3e-6, (1.0, 0.0)): 1.2673565904286972e-12,
    (3e-6, (0.5, 0.2)): 5.301912192206082e-13,
    (1e-6, (1.0, 0.0)): 1.4081739893694297e-13,
    (1e-6, (0.5, 0.2)): 5.891013546926428e-14,
    (1e-8, (1.0, 0.0)): 1.408173989369956e-17,
    (1e-8, (0.5, 0.2)): 5.891013546930275e-18,
}


class TestLandauerReference:
    @pytest.mark.parametrize("temps", [(1.0, 0.0), (0.5, 0.2), (0.0, 1.0)])
    @pytest.mark.parametrize("n", [60, 450])
    @pytest.mark.parametrize("gamma", [0.02, 0.1, 0.4])
    def test_matches_mpmath(self, gamma, n, temps):
        # one reference serves a bath of any size n: its linewidth
        # 2 pi nu0 <g^2>, nu0 = n/BAND_TOP and <g^2> = gamma^2/(3n), is free of n
        linewidth = 2 * np.pi * (n / analytics.BAND_TOP) * (gamma**2 / (3 * n))
        assert spectral_density(gamma) == pytest.approx(linewidth, rel=1e-14)
        # the current is odd under swapping the baths
        want = np.sign(temps[0] - temps[1]) * LANDAUER_REFERENCE[gamma, (max(temps), min(temps))]
        assert landauer_current(gamma, *temps) == pytest.approx(want, rel=1e-12, abs=0)

    def test_low_temperature_does_not_overflow(self):
        # w/T reaches 2000 > 709, where e^x overflows a float
        want = LANDAUER_REFERENCE[0.1, (1e-3, 0.0)]
        assert landauer_current(0.1, 1e-3, 0.0) == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("gamma", [0.003, 0.001])
    def test_narrow_centre_peak(self, gamma):
        # the Lorentzian has width 2 Gamma = 2 pi gamma^2/3 < 2e-5; adaptive
        # quadrature stepped over it and returned a current of the wrong sign
        want = LANDAUER_REFERENCE[gamma, (1.0, 0.0)]
        assert landauer_current(gamma, 1.0, 0.0) == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("gamma, temps", LANDAUER_SMALL_REFERENCE,
                             ids=[f"{g}-T{t1}-{t2}" for g, (t1, t2) in LANDAUER_SMALL_REFERENCE])
    def test_small_couplings(self, gamma, temps):
        # gamma 1e-5 is just above the switch to the weak-coupling limit, the
        # rest below it; at 1e-6 and 1e-8 the rule alone is off by 1.4e-10 and
        # 4.4e-8, under its absolute error bound
        want = LANDAUER_SMALL_REFERENCE[gamma, temps]
        assert landauer_current(gamma, *temps) == pytest.approx(want, rel=1e-10, abs=0)

    def test_vanishing_coupling_is_the_weak_limit(self):
        # the Lorentzian, 1e-200 wide, falls between the rule's nodes
        got = landauer_current(1e-100, 1.0, 0.0)
        g = spectral_density(1e-100)
        assert got > 0
        assert got == weak_coupling_current(g, g, 1.0, 0.0)

    def test_rule_nodes_inside_band(self):
        # every node and its offsets from the centre and the top are exact and
        # nonzero, and the node set is symmetric under w -> 2 - w
        w = analytics._NODES
        assert np.all(w > 0) and np.all(analytics._BELOW_TOP > 0)
        assert np.all(analytics._FROM_CENTRE != 0)
        np.testing.assert_allclose(analytics._BELOW_TOP, analytics.BAND_TOP - w, rtol=0, atol=1e-15)
        np.testing.assert_allclose(analytics._FROM_CENTRE, w - 1, rtol=0, atol=1e-15)
        np.testing.assert_allclose(np.sort(w), np.sort(analytics._BELOW_TOP), rtol=1e-15)

    def test_rule_integrates_log_singularities(self):
        # int_0^2 ln(w) ln(2 - w) dw = 4 - 4 ln 2 - pi^2/3 + 2 ln(2)^2: log-singular at both edges
        f = np.log(analytics._NODES) * np.log(analytics._BELOW_TOP)
        want = 4 - 4 * math.log(2) - math.pi**2 / 3 + 2 * math.log(2) ** 2
        assert f @ analytics._WEIGHTS == pytest.approx(want, rel=1e-14)
        assert f @ analytics._HALF_WEIGHTS == pytest.approx(want, rel=1e-12)

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            landauer_current(0.1, -0.1, 0.0)


class TestPhysicalScales:
    def test_relaxation_time(self):
        assert relaxation_time(0.1) == pytest.approx(3 / (2 * np.pi * 0.01), rel=1e-15)
        assert relaxation_time(0.1) == pytest.approx(47.75, abs=0.01)
        assert relaxation_time(0.0) == math.inf

    def test_relaxation_time_is_the_inverse_total_linewidth(self):
        g = spectral_density(0.2)
        assert relaxation_time(0.2) == pytest.approx(1 / (2 * g), rel=1e-14)

    def test_heisenberg_time(self):
        assert heisenberg_time(250) == pytest.approx(785.398, abs=1e-3)

    def test_levels_per_linewidth(self):
        want = spectral_density(0.1) * 1200 / 2  # Gamma nu0, nu0 = N/2
        assert levels_per_linewidth(0.1, 1200) == pytest.approx(want, rel=1e-15)
        assert levels_per_linewidth(0.1, 1200) == pytest.approx(2 * np.pi, rel=1e-12)
        assert levels_per_linewidth(0.0, 1200) == 0.0


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
        g = spectral_density(0.1)
        assert weak_coupling_current(g, g, 1.0, 0.0) == pytest.approx(
            1.4082e-3, abs=1e-7
        )

    @pytest.mark.parametrize("ratio", [1.0, 3.0])
    def test_vanishing_linewidths_do_not_underflow(self, ratio):
        # G1 G2 is about 1e-400, below the smallest double
        mp = pytest.importorskip("mpmath")
        g1, g2 = spectral_density(1e-100), ratio * spectral_density(1e-100)
        with mp.workdps(40):
            G1, G2 = mp.mpf(g1), mp.mpf(g2)
            want = G1 * G2 / (G1 + G2) / (1 + mp.e)
        got = weak_coupling_current(g1, g2, 1.0, 0.0)
        assert got == pytest.approx(float(want), rel=1e-15, abs=0)


# the coupling scale at which 50 levels have <g^2> = gamma^2/(3 * 50) = 1e-4
GAMMA_50 = math.sqrt(3 * 50 * 1e-4)


class TestAnomalousTransient:
    def test_zero_at_t0(self):
        rng = np.random.default_rng(0)
        w = rng.uniform(0, 2, size=50)
        assert anomalous_current_discrete(w, 0.0, GAMMA_50, 0.0) == 0.0
        assert anomalous_current_continuum(0.1, 0.0, 0.0) == 0.0

    def test_infinite_temperature_halves_amplitude(self):
        rng = np.random.default_rng(1)
        w = rng.uniform(0, 2, size=50)
        t = np.linspace(0.1, 10, 40)
        cold = anomalous_current_discrete(w, 0.0, GAMMA_50, t)
        hot = anomalous_current_discrete(w, 1e12, GAMMA_50, t)
        assert np.allclose(hot, cold / 2, atol=1e-12)

    def test_discrete_converges_to_continuum(self):
        # O(1/sqrt(N)) sampling error: 5% RMS at N = 1e4
        n = 10_000
        rng = np.random.default_rng(2)
        w = rng.uniform(0, 2, size=n)
        t = np.linspace(0.25, 20, 80)
        disc = anomalous_current_discrete(w, 0.0, 0.1, t)
        cont = np.array(
            [anomalous_current_continuum(0.1, 0.0, ti) for ti in t]
        )
        rms = np.sqrt(np.mean((disc - cont) ** 2)) / np.sqrt(np.mean(cont**2))
        assert rms < 0.05

    def test_amplitude_decays(self):
        def rms(lo, hi):
            t = np.linspace(lo, hi, 30)
            vals = [anomalous_current_continuum(0.1, 0.0, ti) for ti in t]
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
        # complex couplings, given from outside, count by their modulus
        freqs = np.array([0.95, 1.02, 1.05, 1.4])
        g = np.array([0.1j, 0.1, (0.03 - 0.04j), 0.2j])
        want = empirical_gamma(freqs, np.abs(g), 1.0)
        assert empirical_gamma(freqs, g, 1.0) == pytest.approx(want, rel=1e-15)
        assert want == pytest.approx(2 * np.pi * 0.0225 / 0.2, rel=1e-12)
