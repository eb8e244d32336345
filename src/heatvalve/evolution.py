"""Heat-current traces and window means of a solved arrow realization.

The Hamiltonian is time independent, so chi(t) = e^{-iHt} chi(0) e^{iHt}.
A realization is its ``nambu.ArrowPropagator``: the evolution turns the
pair of singular bases through cos(st) and sin(st).  Heat currents
d<H_bath>/dt = -(1/2i) tr(chi(t) [H_bath, H]) take H_bath as the vector
of its mode energies (``valve.bath_levels``).  The bath couples only to
the central mode, so the commutator is written down from the central
column, and each part of the current is an M x M bilinear form in cos(st)
and sin(st) (``heat_current``).  The mean over a window's samples needs
no time grid (``window_mean_current``): each pair of singular values is
weighted by the window's Dirichlet kernel, over one triangle of pairs, a
chunk of rows at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nambu


@dataclass(frozen=True)
class CurrentTrace:
    """Heat current vs time, split into normal and anomalous parts."""

    times: np.ndarray
    total: np.ndarray
    normal: np.ndarray
    anomalous: np.ndarray

    def __post_init__(self):
        for arr in (self.times, self.total, self.normal, self.anomalous):
            arr.setflags(write=False)
        if not (len(self.times) == len(self.total) == len(self.normal) == len(self.anomalous)):
            raise ValueError("trace arrays must have equal length")
        gap = np.abs(self.total - (self.normal + self.anomalous)).max(initial=0.0)
        if not gap <= 1e-10:  # NaN included
            raise ValueError(f"total != normal + anomalous, max gap {gap:.3e}")


def _phase_parts(s: np.ndarray, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos(s t) and sin(s t) as (M, T) arrays; the sine overwrites the argument."""
    arg = np.multiply.outer(s, times)
    cos = np.cos(arg)
    return cos, np.sin(arg, out=arg)


def _coupled_levels(prop: nambu.ArrowPropagator, levels) -> np.ndarray:
    """w = levels * couplings: the measured bath's side of [H_bath, H], checked against M."""
    M = prop.arrow.modes
    levels = np.asarray(levels)
    if levels.shape != (M,):
        raise ValueError(f"bath levels must have shape ({M},), got {levels.shape}")
    return levels * prop.arrow.couplings


def _antisym(a: np.ndarray, b: np.ndarray, rows=slice(None), cols=slice(None)) -> np.ndarray:
    """The block [rows, cols] of N = b a^T - a b^T, antisymmetric and exactly 0 on its diagonal."""
    N = np.multiply.outer(b[rows], a[cols])
    N -= np.multiply.outer(a[rows], b[cols])
    return N


def _bilinear(cos: np.ndarray, G: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """-(1/2) cos(st)^T G sin(st) at every time, one (M, T) product alive."""
    return -0.5 * np.einsum("jt,jt->t", cos, G @ sin)


def heat_current(prop: nambu.ArrowPropagator, levels, times) -> CurrentTrace:
    """Heat current into the bath, -(1/2i) tr(chi(t) [H_bath, H]).

    H is the arrow's Hamiltonian, ``levels`` the M mode energies of H_bath,
    zero off the measured bath (``valve.bath_levels``).  In the Majorana
    form C = [H_bath, H] is block diagonal: its normal part is diag(n, n),
    its anomalous part diag(n, -n), with n = w e_c^T - e_c w^T and
    w = levels * couplings (the bath couples to the centre c alone).  The
    state turns through cos(st) and sin(st) acting on X, so the normal part
    of the current is f_Q + f_P and the anomalous part f_Q - f_P, where
    f_Q(t) = -(1/2) cos(st)^T G_Q sin(st) with G_Q = X * (b a^T - a b^T),
    a = Q^T w and b = Q[c, :], and f_P is the same with X^T and P: one M x M
    product per part per time point.  Under the RWA P = Q sign(l) makes
    G_P = G_Q, so the normal part is 2 f_Q (no G_P is formed) and the
    anomalous part exactly zero; so is a current with w = 0.
    """
    times = np.asarray(times, dtype=float)
    arrow = prop.arrow
    w = _coupled_levels(prop, levels)
    zeros = np.zeros_like(times)
    if not w.any():
        return CurrentTrace(times=times, total=zeros, normal=zeros, anomalous=zeros)
    cos, sin = _phase_parts(prop.s, times)
    G_Q = _antisym(w @ prop.Q, prop.Q[arrow.center])
    G_Q *= prop.X
    f_Q = _bilinear(cos, G_Q, sin)
    if arrow.rwa:
        normal, anomalous = 2 * f_Q, zeros
    else:
        G_P = _antisym(w @ prop.P, prop.P[arrow.center])
        G_P *= prop.X.T
        f_P = _bilinear(cos, G_P, sin)
        normal, anomalous = f_Q + f_P, f_Q - f_P
    return CurrentTrace(
        times=times, total=normal + anomalous, normal=normal, anomalous=anomalous
    )


MIN_WINDOW_SAMPLES = 10
# Rows of the triangle that window_mean_current handles at once: its working
# set is a few (rows x M) arrays instead of the whole M x M form.  64 rows
# ran faster than 128 at M = 2401 and no slower at M = 901 (one thread).
MEAN_CHUNK_ROWS = 64
# k < j inside a chunk's diagonal block; a last, shorter chunk takes its corner
_BELOW_DIAGONAL = np.tri(MEAN_CHUNK_ROWS, k=-1, dtype=bool)


def _in_window(times: np.ndarray, window) -> np.ndarray:
    return (times >= window[0]) & (times <= window[1])


def window_times(window, time_step) -> np.ndarray:
    """The time grid of a steady-state window: t_lo, t_lo + dt, ... inside it."""
    times = np.arange(window[0], window[1] + time_step / 2, time_step)
    return times[_in_window(times, window)]


def _check_sample_count(n: int, window) -> None:
    lo, hi = window
    if n == 0:
        raise ValueError(f"no trace samples inside window [{lo}, {hi}]")
    if n < MIN_WINDOW_SAMPLES:
        raise ValueError(
            f"only {n} samples inside window [{lo}, {hi}]; need >= {MIN_WINDOW_SAMPLES}"
        )


def _window_kernel(w: np.ndarray, samples: int, half_step: float) -> np.ndarray:
    """rho(w) = sin(T w h) / (T sin(w h)), the mean of e^{-iw(t - tau)} over the samples.

    T samples t_n = tau + (2n + 1 - T) h sit symmetrically about their
    centre tau.  Both sines are taken from w itself, so rho keeps its
    relative accuracy as w -> 0, where it is 1.  They go through
    t = tan(x/2), sin x = 2t / (1 + t^2): numpy's tan is several times
    faster than its sin (numpy 2.4, x86-64).  Overwrites w; every step is
    in place, on the chunk's few (rows x M) buffers.
    """
    # rho = [2a / (1 + a^2)] / [T 2b / (1 + b^2)]
    a = np.multiply(w, samples * half_step / 2)
    np.tan(a, out=a)
    b = np.multiply(w, half_step / 2, out=w)
    np.tan(b, out=b)
    rho = np.multiply(b, b)
    rho += 1
    rho *= a  # a (1 + b^2)
    resolved = b != 0
    b *= samples
    a *= a
    a += 1
    a *= b  # T b (1 + a^2)
    np.divide(rho, a, out=rho, where=resolved)
    rho[~resolved] = 1.0
    return rho


def window_mean_current(prop: nambu.ArrowPropagator, levels, window, time_step) -> float:
    """Mean over the samples of ``window_times`` of the ``heat_current`` total.

    The total is 2 f_Q for every arrow (``heat_current``), so it is
    -(1/2) cos(st)^T G sin(st) for G = 2 G_Q.  Over T equally spaced
    samples centred on tau, the mean of cos(s_j t) sin(s_k t) is
    [rho(s_j + s_k) sin((s_j + s_k) tau) + rho(s_k - s_j) sin((s_k - s_j) tau)] / 2
    (``_window_kernel``): no time grid, and a long window costs what a short
    one does.  G is zero on its diagonal and rho is even, so the sum runs
    over j < k alone, the sum term weighted by G_jk + G_kj and the
    difference term by G_jk - G_kj; with G = X * N for the antisymmetric
    N = b a^T - a b^T, these are (X_jk -+ X_kj) N_jk.  The triangle is taken
    a chunk of rows at a time.

    The mean is exact only for frequencies the samples resolve: a time step
    with s_max dt >= pi/2 (the Nyquist bound of the highest frequency
    2 s_max) is refused.
    """
    M = prop.arrow.modes
    w = _coupled_levels(prop, levels)
    times = window_times(window, time_step)
    _check_sample_count(len(times), window)
    s = prop.s
    s_max = float(s.max(initial=0.0))
    if s_max * time_step >= np.pi / 2:
        raise ValueError(
            f"time_step dt={time_step} aliases the window mean: s_max*dt = "
            f"{s_max * time_step:.4g} >= pi/2 for the highest quasiparticle energy "
            f"s_max={s_max:.6g}; need dt < pi/(2 s_max) = {np.pi / (2 * s_max):.6g}"
        )
    if not w.any():
        return 0.0  # G is exactly zero
    X = prop.X
    a, b = w @ prop.Q, prop.Q[prop.arrow.center]
    # centre and spacing of the samples themselves: np.arange steps by
    # fl(t0 + dt) - t0, which on [200, 400] at dt 0.05 puts the last
    # sample 4.5e-11 from t0 + (T - 1) dt
    T = len(times)
    tau = (times[0] + times[-1]) / 2
    h = (times[-1] - times[0]) / (2 * (T - 1))
    cos, sin = np.cos(s * tau), np.sin(s * tau)
    total = 0.0
    for j0 in range(0, M, MEAN_CHUNK_ROWS):
        j1 = min(j0 + MEAN_CHUNK_ROWS, M)
        rows, cols = slice(j0, j1), slice(j0, M)
        sym = _antisym(a, b, rows, cols)
        anti = sym.copy()
        Xt = X[cols, rows].T
        pair = np.subtract(X[rows, cols], Xt)
        sym *= pair
        np.add(X[rows, cols], Xt, out=pair)
        anti *= pair
        del pair
        # only k > j inside the diagonal block (both are 0 at k = j)
        n = j1 - j0
        lower = _BELOW_DIAGONAL[:n, :n]
        sym[:, :n][lower] = 0.0
        anti[:, :n][lower] = 0.0
        # sin((s_j + s_k) tau) = sin_j cos_k + cos_j sin_k: two matrix-vector
        # products; their rounding is damped by rho(s_j + s_k) unless both
        # are small, where they are accurate
        plus = _window_kernel(s[rows, None] + s[cols], T, h)
        plus *= sym
        del sym
        total += sin[rows] @ (plus @ cos[cols]) + cos[rows] @ (plus @ sin[cols])
        # sin((s_k - s_j) tau) from the difference itself: by the addition
        # theorem a near-degenerate pair, rho ~ 1, would cancel O(1) terms
        diff = s[cols] - s[rows, None]
        minus = np.multiply(diff, tau)
        np.sin(minus, out=minus)
        minus *= _window_kernel(diff, T, h)
        minus *= anti
        total += minus.sum()
    return float(-0.5 * total)
