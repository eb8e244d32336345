"""Closed-form and quadrature-based steady-state and transient predictions.

Everything here assumes the natural units hbar = k_B = 1 with energies in
units of the central-level frequency omega0 = 1, and a uniform bath band on
[0, BAND_TOP] = [0, 2] with constant density of states nu0 = N / 2.
Currents are in units of hbar*omega0^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import expit

EDGE_TOL = 1e-12
BAND_TOP = 2.0  # bath levels are uniform on [0, BAND_TOP]
LANDAUER_ABS_TOL = 1e-10
EMPIRICAL_HALFWIDTH = 0.1


def fermi(x) -> np.ndarray | float:
    """Fermi-Dirac function 1/(e^x + 1); handles +-inf and arrays."""
    return expit(np.negative(x))


def occupation(omega, temperature: float):
    """Equilibrium occupation f(omega/T) with the T = 0 step limit.

    At T = 0 the value is 1 for omega < 0, 0 for omega > 0 and 1/2 at
    exactly zero (right-limit step convention).
    """
    omega = np.asarray(omega, dtype=float)
    if temperature < 0:
        raise ValueError(f"temperature must be >= 0, got {temperature}")
    if temperature == 0:
        out = np.where(omega < 0, 1.0, np.where(omega > 0, 0.0, 0.5))
        return out if out.ndim else float(out)
    out = fermi(omega / temperature)
    return out if np.ndim(out) else float(out)


@dataclass(frozen=True)
class UniformBathSpec:
    """Uniform-band bath: N levels on [0, 2] with mean-square coupling."""

    bath_size: int
    mean_square_coupling: float

    def __post_init__(self):
        if self.bath_size < 1:
            raise ValueError(f"bath_size must be >= 1, got {self.bath_size}")
        if self.mean_square_coupling < 0:
            raise ValueError("mean_square_coupling must be >= 0")

    @classmethod
    def from_coupling_scale(cls, gamma: float, bath_size: int):
        """Spec with the ensemble second moment gamma^2/(3N) of the sampled couplings."""
        return cls(bath_size, gamma**2 / (3 * bath_size))

    @property
    def level_density(self) -> float:
        return self.bath_size / BAND_TOP

    @property
    def band(self) -> tuple[float, float]:
        return (0.0, BAND_TOP)


def spectral_density(spec: UniformBathSpec) -> float:
    """Flat in-band spectral density Gamma = 2*pi*nu0*<g^2>."""
    return 2 * np.pi * spec.level_density * spec.mean_square_coupling


def self_energy(spec: UniformBathSpec, omega: float) -> float:
    """Level shift Sigma(omega) = -(Gamma/2pi) ln(BAND_TOP/omega - 1).

    Defined strictly inside the band; the logarithm diverges at the edges.
    """
    lo, hi = spec.band
    if omega <= lo + EDGE_TOL or omega >= hi - EDGE_TOL:
        raise ValueError(f"omega={omega} at or outside the open band ({lo}, {hi})")
    gamma_a = spectral_density(spec)
    return -gamma_a / (2 * np.pi) * np.log(BAND_TOP / omega - 1)


def transmission(spec1: UniformBathSpec, spec2: UniformBathSpec, omega: float) -> float:
    """Lorentzian-with-shift transmission coefficient |tau(omega)|^2."""
    g1 = spectral_density(spec1)
    g2 = spectral_density(spec2)
    sigma = self_energy(spec1, omega) + self_energy(spec2, omega)
    denom = (omega - 1 - sigma) ** 2 + (g1 / 2 + g2 / 2) ** 2
    return g1 * g2 / denom


def _scalar_occupation(temperature: float):
    """``occupation(., temperature)`` of one float, in scalar math."""
    if temperature == 0:
        return lambda w: 1.0 if w < 0 else 0.0 if w > 0 else 0.5

    def fermi_dirac(w):
        try:
            return 1 / (1 + math.exp(w / temperature))
        except OverflowError:  # as in numpy: 1 / (1 + inf) = 0
            return 0.0

    return fermi_dirac


def _landauer_integrand(spec1: UniformBathSpec, spec2: UniformBathSpec, t1: float, t2: float):
    """w -> (1/2pi) |tau(w)|^2 w [f1(w) - f2(w)] for one float w.

    The composition of ``occupation`` and ``transmission`` (with
    ``self_energy``) with the constants hoisted and Python floats in place
    of numpy 0-d calls: quad evaluates it about a thousand times.  Outside
    the open band it raises ``self_energy``'s ValueError.
    """
    g1, g2 = spectral_density(spec1), spectral_density(spec2)
    # self_energy: -Gamma/(2 pi) ln(BAND_TOP/w - 1) per bath
    k1, k2 = -g1 / (2 * np.pi), -g2 / (2 * np.pi)
    lo, hi = spec1.band[0] + EDGE_TOL, spec1.band[1] - EDGE_TOL
    width, strength = (g1 / 2 + g2 / 2) ** 2, g1 * g2
    f1, f2 = _scalar_occupation(t1), _scalar_occupation(t2)

    def integrand(w):
        if not lo < w < hi:
            self_energy(spec1, w)
            self_energy(spec2, w)
        ln = math.log(BAND_TOP / w - 1)
        sigma = k1 * ln + k2 * ln
        tau2 = strength / ((w - 1 - sigma) ** 2 + width)
        return tau2 * w * (f1(w) - f2(w)) / (2 * np.pi)

    return integrand


def landauer_current(
    spec1: UniformBathSpec, spec2: UniformBathSpec, t1: float, t2: float
) -> float:
    """Steady-state heat current (1/2pi) int |tau|^2 w [f1 - f2] dw over the band.

    Adaptive quadrature; the integrand has integrable log-singular behavior
    at the band edges, which the open (interior-node) rule never evaluates.
    """
    if t1 < 0 or t2 < 0:
        raise ValueError("temperatures must be >= 0")
    if t1 == t2:
        return 0.0
    if spectral_density(spec1) == 0 or spectral_density(spec2) == 0:
        return 0.0
    lo, hi = spec1.band
    val, err = integrate.quad(
        _landauer_integrand(spec1, spec2, t1, t2),
        lo,
        hi,
        points=[1.0],  # the central level
        limit=500,
        epsabs=LANDAUER_ABS_TOL,
        epsrel=1e-10,
    )
    if err > max(LANDAUER_ABS_TOL * 10, 1e-8 * abs(val)):
        raise RuntimeError(
            f"Landauer quadrature did not converge: estimate {val:.6e}, error {err:.3e}"
        )
    return float(val)


def weak_coupling_current(gamma1: float, gamma2: float, t1: float, t2: float) -> float:
    """Weak-coupling limit [G1*G2/(G1+G2)] * omega0 * [f1(omega0) - f2(omega0)], omega0 = 1."""
    if gamma1 < 0 or gamma2 < 0:
        raise ValueError("spectral densities must be >= 0")
    if gamma1 + gamma2 == 0:
        return 0.0
    df = occupation(1.0, t1) - occupation(1.0, t2)
    return gamma1 * gamma2 / (gamma1 + gamma2) * df


def relaxation_time(gamma: float) -> float:
    """tau = 1/(Gamma1 + Gamma2) = 3/(2 pi gamma^2), the relaxation time of the valve.

    Gamma = pi gamma^2/3 is each bath's ``spectral_density`` at
    coupling scale gamma, whatever N; infinite at gamma = 0.
    """
    if gamma == 0:
        return math.inf
    return 3 / (2 * np.pi * gamma**2)


def heisenberg_time(bath_size: int) -> float:
    """t_H = 2 pi nu0 = pi N, when a bath's discreteness shows (recurrences)."""
    return np.pi * bath_size


def levels_per_linewidth(gamma: float, bath_size: int) -> float:
    """Gamma nu0, the bath levels inside one linewidth of the central level."""
    spec = UniformBathSpec.from_coupling_scale(gamma, bath_size)
    return spectral_density(spec) * spec.level_density


def anomalous_current_discrete(
    frequencies: np.ndarray,
    temperature: float,
    mean_square_coupling: float,
    t,
):
    """First-order transient anomalous current for one bath's sampled levels.

    2<g^2> sum_k w_k [1 - f(w_k/T)] / (omega0 + w_k) * sin((omega0 + w_k) t),
    omega0 = 1, vectorized over t.
    """
    w = np.asarray(frequencies, dtype=float)
    t = np.asarray(t, dtype=float)
    weight = 2 * mean_square_coupling * w * (1 - occupation(w, temperature)) / (1 + w)
    phases = np.sin(np.multiply.outer(t, 1 + w))
    out = phases @ weight
    return out if out.ndim else float(out)


def anomalous_current_continuum(spec: UniformBathSpec, temperature: float, t: float) -> float:
    """Continuum limit of the transient anomalous current.

    2<g^2> int nu(w) w [1 - f(w/T)] / (omega0 + w) sin((omega0 + w) t) dw
    over the band, omega0 = 1, with oscillation handled by sin/cos-weighted
    quadrature.
    """
    pref = 2 * spec.mean_square_coupling * spec.level_density
    lo, hi = spec.band

    def envelope(w):
        return w * (1 - occupation(w, temperature)) / (1 + w)

    if t == 0:
        return 0.0
    # sin((1+w)t) = sin(wt)cos(t) + cos(wt)sin(t)
    s, _ = integrate.quad(envelope, lo, hi, weight="sin", wvar=t, limit=500)
    c, _ = integrate.quad(envelope, lo, hi, weight="cos", wvar=t, limit=500)
    return pref * (s * np.cos(t) + c * np.sin(t))


def empirical_gamma(frequencies: np.ndarray, couplings: np.ndarray, omega: float) -> float:
    """Spectral density 2*pi*sum_k g_k^2 delta(w - w_k) smoothed over a window.

    The window is omega +- EMPIRICAL_HALFWIDTH.

    Evaluates the realization's own density of states near omega, for baths
    whose levels no longer follow the uniform band (e.g. after internal
    couplings are diagonalized away).
    """
    frequencies = np.asarray(frequencies, dtype=float)
    couplings = np.asarray(couplings)
    mask = np.abs(frequencies - omega) < EMPIRICAL_HALFWIDTH
    return float(2 * np.pi * np.sum(np.abs(couplings[mask]) ** 2) / (2 * EMPIRICAL_HALFWIDTH))
