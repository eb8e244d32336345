"""Closed-form and quadrature-based steady-state and transient predictions.

Everything here assumes the natural units hbar = k_B = 1 with energies in
units of the central-level frequency omega0 = 1, and a uniform bath band on
[0, BAND_TOP] = [0, 2] with constant density of states nu0 = N / 2.
Currents are in units of hbar*omega0^2.

The Landauer integral is a fixed tanh-sinh rule in numpy, so importing
this module loads no scipy; only ``anomalous_current_continuum`` imports
``scipy.integrate``, when it is called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EDGE_TOL = 1e-12
BAND_TOP = 2.0  # bath levels are uniform on [0, BAND_TOP]
LANDAUER_ABS_TOL = 1e-10
EMPIRICAL_HALFWIDTH = 0.1


def fermi(x) -> np.ndarray | float:
    """Fermi-Dirac function 1/(e^x + 1); handles +-inf and arrays.

    e^x overflows to inf above x = 709, where the value is 0.
    """
    with np.errstate(over="ignore"):
        return 1 / (1 + np.exp(x))


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


def _tanh_sinh_rule():
    """Nested tanh-sinh rule (Takahasi & Mori 1974) on (0, 1) and (1, BAND_TOP).

    x(u) = 1/(1 + e^(-pi sinh u)) at u = k h, h = 2^-6, |u| <= 3.5 (449
    nodes); the same x serves both halves, w = x and w = 1 + x.  The nodes
    crowd double-exponentially toward 0, the centre level and BAND_TOP.
    x(-u) = 1 - x(u) holds to relative accuracy at both ends, so the
    reversed x gives each node's distance to the end it nears without
    cancellation.  The outermost nodes lie 3e-23 from an end: the centre
    peak is O(1) high, so a cut at 3e-17 (|u| <= 3.2) would drop 2e-11 of
    the current at gamma = 0.001.  Returns the nodes w, their offsets
    w - 1 and BAND_TOP - w, and the weights at step h and of the half rule
    at step 2h.
    """
    step = 2.0**-6
    k = np.arange(-224, 225)
    u = k * step
    x = 1 / (1 + np.exp(-np.pi * np.sinh(u)))
    y = x[::-1]  # 1 - x
    weight = step * np.pi / 4 * np.cosh(u) / np.cosh(np.pi / 2 * np.sinh(u)) ** 2
    half = np.where(k % 2 == 0, 2 * weight, 0.0)
    return (
        np.concatenate([x, 1 + x]),
        np.concatenate([-y, x]),
        np.concatenate([1 + y, y]),
        np.tile(weight, 2),
        np.tile(half, 2),
    )


_NODES, _FROM_CENTRE, _BELOW_TOP, _WEIGHTS, _HALF_WEIGHTS = _tanh_sinh_rule()


def landauer_current(
    spec1: UniformBathSpec, spec2: UniformBathSpec, t1: float, t2: float
) -> float:
    """Steady-state heat current (1/2pi) int |tau|^2 w [f1 - f2] dw over the band.

    A fixed tanh-sinh rule on (0, 1) and (1, 2), one vectorized evaluation
    of ``transmission``'s formula.  The integrand is log-singular at the
    band edges, and its Lorentzian of width Gamma1 + Gamma2 peaks exactly
    at the centre level, where sigma(1) = 0; the rule's nodes crowd at all
    three and never reach an edge.  The error estimate is the difference
    from the nested rule at twice the step.
    """
    if t1 < 0 or t2 < 0:
        raise ValueError("temperatures must be >= 0")
    if t1 == t2:
        return 0.0
    g1, g2 = spectral_density(spec1), spectral_density(spec2)
    if g1 == 0 or g2 == 0:
        return 0.0
    w = _NODES
    # self_energy of both baths: -(Gamma/2pi) ln(BAND_TOP/w - 1) each
    sigma = -(g1 + g2) / (2 * np.pi) * np.log(_BELOW_TOP / w)
    tau2 = g1 * g2 / ((_FROM_CENTRE - sigma) ** 2 + (g1 / 2 + g2 / 2) ** 2)
    f = tau2 * w * (occupation(w, t1) - occupation(w, t2)) / (2 * np.pi)
    val = float(f @ _WEIGHTS)
    err = abs(val - float(f @ _HALF_WEIGHTS))
    if err > max(LANDAUER_ABS_TOL * 10, 1e-8 * abs(val)):
        raise RuntimeError(
            f"Landauer quadrature did not converge: estimate {val:.6e}, error {err:.3e}"
        )
    return val


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
    from scipy import integrate  # only here: a module import would load it for every run

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
