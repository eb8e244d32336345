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

import numpy as np

from .evolution import PHASE_COST, chebyshev_panels, phase_blocks

EDGE_TOL = 1e-12
BAND_TOP = 2.0  # bath levels are uniform on [0, BAND_TOP]
LANDAUER_ABS_TOL = 1e-9  # absolute bound on the Landauer error estimate; the relative one is 1e-8
# below this linewidth Gamma the Landauer current is its Gamma -> 0 limit, the
# weak-coupling current
LANDAUER_WEAK_LIMIT = 1e-10
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


def spectral_density(gamma: float) -> float:
    """Each bath's flat in-band linewidth Gamma = 2 pi nu0 <g^2> = pi gamma^2 / 3.

    nu0 = N / BAND_TOP and <g^2> = gamma^2 / (3N), the second moment of the
    sampled couplings, so the bath size N cancels.  A gamma whose Gamma
    exceeds the float range (|gamma| above about 7.6e153) is a ValueError.
    """
    try:
        gamma_sd = np.pi * gamma**2 / 3
    except OverflowError:
        gamma_sd = math.inf
    if gamma_sd == math.inf:
        raise ValueError(f"gamma={gamma}: gamma^2 overflows (Gamma = pi gamma^2 / 3 is not finite)")
    return gamma_sd


def _check_in_band(omega: float) -> None:
    if omega <= EDGE_TOL or omega >= BAND_TOP - EDGE_TOL:
        raise ValueError(f"omega={omega} at or outside the open band (0.0, {BAND_TOP})")


def self_energy(gamma: float, omega: float) -> float:
    """Level shift Sigma(omega) = -(Gamma/2pi) ln(BAND_TOP/omega - 1) of one bath.

    Defined strictly inside the band; the logarithm diverges at the edges.
    """
    _check_in_band(omega)
    return -spectral_density(gamma) / (2 * np.pi) * np.log(BAND_TOP / omega - 1)


def _transmission(from_centre, top_ratio, gamma_sd: float):
    """|tau|^2 = 1/(1 + x^2) between two baths of linewidth Gamma > 0.

    x = (omega - 1 - 2 Sigma(omega)) / Gamma = (omega - 1)/Gamma + ln(top_ratio)/pi,
    from the offset omega - 1 and the ratio (BAND_TOP - omega)/omega.  Where
    x^2 overflows, |tau|^2 is 0 to within underflow.
    """
    with np.errstate(over="ignore"):
        x = from_centre / gamma_sd + np.log(top_ratio) / np.pi
        return 1 / (1 + x * x)


def transmission(gamma: float, omega: float) -> float:
    """Lorentzian-with-shift transmission coefficient |tau(omega)|^2 of the valve.

    1 at the centre level for any Gamma > 0, and 0 at Gamma = 0.
    """
    _check_in_band(omega)
    gamma_sd = spectral_density(gamma)
    if gamma_sd == 0:
        return 0.0
    return float(_transmission(omega - 1, (BAND_TOP - omega) / omega, gamma_sd))


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


def landauer_current(gamma: float, t1: float, t2: float) -> float:
    """Steady-state heat current (1/2pi) int |tau|^2 w [f1 - f2] dw over the band.

    A fixed tanh-sinh rule on (0, 1) and (1, 2), one vectorized evaluation
    of ``transmission``'s formula.  The integrand is log-singular at the
    band edges, and its Lorentzian of width 2 Gamma peaks exactly at the
    centre level, where sigma(1) = 0; the rule's nodes crowd at all three
    and never reach an edge.  The error estimate is the difference from
    the nested rule at twice the step.

    Below Gamma = LANDAUER_WEAK_LIMIT (gamma about 9.8e-6) the current is
    ``weak_coupling_current(Gamma, Gamma, t1, t2)``, the Gamma -> 0 limit of
    the same integral, within 0.36-0.62 Gamma relative at (t1, t2) = (1, 0)
    and (0.5, 0.2).  There the peak is too narrow for the rule, and the
    whole current falls below the absolute error bound, so the check could
    not see the error.
    """
    if t1 < 0 or t2 < 0:
        raise ValueError("temperatures must be >= 0")
    if t1 == t2:
        return 0.0
    gamma_sd = spectral_density(gamma)
    if gamma_sd < LANDAUER_WEAK_LIMIT:
        return weak_coupling_current(gamma_sd, gamma_sd, t1, t2)
    w = _NODES
    tau2 = _transmission(_FROM_CENTRE, _BELOW_TOP / w, gamma_sd)
    f = tau2 * w * (occupation(w, t1) - occupation(w, t2)) / (2 * np.pi)
    val = float(f @ _WEIGHTS)
    err = abs(val - float(f @ _HALF_WEIGHTS))
    if err > max(LANDAUER_ABS_TOL, 1e-8 * abs(val)):
        raise RuntimeError(
            f"Landauer quadrature did not converge: estimate {val:.6e}, error {err:.3e}"
        )
    return val


def weak_coupling_current(gamma1: float, gamma2: float, t1: float, t2: float) -> float:
    """Weak-coupling limit [G1*G2/(G1+G2)] * omega0 * [f1(omega0) - f2(omega0)], omega0 = 1.

    Formed as G1 * (G2/(G1+G2)), without the product G1*G2, which would
    underflow below G of about 1e-154.
    """
    if gamma1 < 0 or gamma2 < 0:
        raise ValueError("spectral densities must be >= 0")
    if gamma1 + gamma2 == 0:
        return 0.0
    df = occupation(1.0, t1) - occupation(1.0, t2)
    return gamma1 * (gamma2 / (gamma1 + gamma2)) * df


def relaxation_time(gamma: float) -> float:
    """tau = 1/(2 Gamma) = 3/(2 pi gamma^2), the relaxation time of the valve.

    Infinite at Gamma = 0.
    """
    gamma_sd = spectral_density(gamma)
    if gamma_sd == 0:
        return math.inf
    return 1 / (2 * gamma_sd)


def heisenberg_time(bath_size: int) -> float:
    """t_H = 2 pi nu0 = pi N, when a bath's discreteness shows (recurrences)."""
    return np.pi * bath_size


def levels_per_linewidth(gamma: float, bath_size: int) -> float:
    """Gamma nu0, the bath levels inside one linewidth of the central level."""
    return spectral_density(gamma) * bath_size / BAND_TOP


def anomalous_current_discrete(
    frequencies: np.ndarray,
    temperature: float,
    gamma: float,
    t,
):
    """First-order transient anomalous current for one bath's sampled levels.

    2<g^2> sum_k w_k [1 - f(w_k/T)] / (omega0 + w_k) * sin((omega0 + w_k) t),
    omega0 = 1, with <g^2> = gamma^2/(3N) over the N levels, vectorized over t
    a block of times at a time (``evolution.phase_blocks``), so no (T, N)
    array is formed.  Its frequencies are at most max|1 + w_k|, so a long
    grid takes it at Chebyshev panel nodes and interpolates
    (``evolution.chebyshev_panels``).
    """
    w = np.asarray(frequencies, dtype=float)
    t = np.asarray(t, dtype=float)
    mean_square_coupling = gamma**2 / (3 * len(w))
    weight = 2 * mean_square_coupling * w * (1 - occupation(w, temperature)) / (1 + w)
    phases = 1 + w

    def series(times):
        out = np.empty(len(times))
        for block, _, sin in phase_blocks(phases, times):
            out[block] = weight @ sin
        return out

    band = np.abs(phases).max(initial=0.0)
    out = chebyshev_panels(series, t.ravel(), band, (1 + PHASE_COST) * len(w))
    return out.reshape(t.shape) if t.ndim else float(out[0])


def anomalous_current_continuum(gamma: float, temperature: float, t: float) -> float:
    """Continuum limit of the transient anomalous current.

    2<g^2> nu0 int w [1 - f(w/T)] / (omega0 + w) sin((omega0 + w) t) dw
    over the band, omega0 = 1, with 2<g^2> nu0 = Gamma/pi and oscillation
    handled by sin/cos-weighted quadrature.
    """
    pref = spectral_density(gamma) / np.pi

    def envelope(w):
        return w * (1 - occupation(w, temperature)) / (1 + w)

    if t == 0:
        return 0.0
    if not abs(t) * np.finfo(float).eps < 1:  # the phase (1 + w) t would be rounding noise
        raise ValueError(f"t={t} is beyond 1/eps, where no phase (1 + w) t is resolved")
    from scipy import integrate  # only here: a module import would load it for every run

    # sin((1+w)t) = sin(wt)cos(t) + cos(wt)sin(t)
    s, _ = integrate.quad(envelope, 0.0, BAND_TOP, weight="sin", wvar=t, limit=500)
    c, _ = integrate.quad(envelope, 0.0, BAND_TOP, weight="cos", wvar=t, limit=500)
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
