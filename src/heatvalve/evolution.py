"""Heat-current traces and window means of a solved arrow realization.

The Hamiltonian is time independent, so chi(t) = e^{-iHt} chi(0) e^{iHt}.
A realization is its ``nambu.ArrowPropagator``: the evolution turns the
pair of singular bases through cos(st) and sin(st).  Heat currents
d<H_bath>/dt = -(1/2i) tr(chi(t) [H_bath, H]) take H_bath as the vector
of its mode energies (``valve.bath_levels``).  The bath couples only to
the central mode, so the commutator is written down from the central
column, and each part of the current is an M x M bilinear form in cos(st)
and sin(st) (``heat_current``).  The time grid is taken a block of
B = max(TRACE_BLOCK, M) times at a time, with the phases of a block from
one tan(st/2) per entry (``phase_blocks``), so a trace's working memory is
O(M B + M^2), not O(M T).  A long grid oversamples the forms, whose
frequencies are at most 2 s_max: they are evaluated at the nodes of
Chebyshev panels and interpolated onto the grid (``chebyshev_panels``)
when that costs less.  The mean over a window's samples needs
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


# Fewest times that heat_current (and ``analytics.anomalous_current_discrete``)
# phases and contracts at once; a block holds B = max(TRACE_BLOCK, M) times,
# so its working set is a few (M x B) arrays, not (M x T) ones.  At M = 501
# (one thread) 512 ran within noise of the fastest block and peaked lowest.
# Every block re-reads the M x M forms: at M = 2001 blocks of 512 ran
# 12-20% slower than blocks of 2048, hence at least M times.
TRACE_BLOCK = 512


def phase_blocks(s: np.ndarray, times: np.ndarray):
    """Yield (block, cos, sin): a slice of B = max(TRACE_BLOCK, len(s)) times, cos(s t) and sin(s t).

    cos and sin are (len(s), B) arrays (the last block may be shorter), from
    one tan per entry: with u = tan(x/2) and r = 2/(1 + u^2),
    cos x = (1 - u^2)/(1 + u^2) = r - 1 and sin x = 2u/(1 + u^2) = u r, each
    within 2 eps absolute, and exactly (1, 0) at x = 0.  numpy's tan is
    several times faster than its cos and sin (numpy 2.4, x86-64).  x/2 is
    formed as s (t/2), an exact halving of fl(s t).  Beside an odd multiple
    of pi u is large, but no double reaches the pole, so u^2 stays finite and
    cos tends to -1, sin to 2/u.  Every step is in place, on two arrays.
    """
    half = np.asarray(times, dtype=float) / 2
    size = max(TRACE_BLOCK, len(s))
    for t0 in range(0, len(half), size):
        block = slice(t0, t0 + size)
        u = np.multiply.outer(s, half[block])
        np.tan(u, out=u)
        r = np.multiply(u, u)
        r += 1
        np.divide(2, r, out=r)
        sin = np.multiply(u, r, out=u)
        yield block, np.subtract(r, 1, out=r), sin


# Most phase a Chebyshev panel spans: its half-width h keeps z = band h <= PANEL_PHASE.
# Larger panels need fewer nodes but more interpolation per time.  Over
# 32-192 (one thread, min of 3): 64 was fastest for heat_current at
# M = 201 (T = 20001), 0-4% off at M = 501 but for the exact kind at
# T = 5001 (20%, 24.2 vs 20.2 ms at 192), and 11-23% off at M = 2001,
# T = 10001, where 192 won; 32 won for the overlay at N = 100 and 250.
PANEL_PHASE = 64.0
# The panel path's cost model, in multiply-adds of the direct path's form
# product (about 0.033 ns each at M = 501 and 2001, one thread): one phase
# entry (``phase_blocks``, about 8.5 ns) and one barycentric (time, node)
# term (about 3.3 ns), the ratio c/k.
PHASE_COST = 250
PANEL_TERM_COST = 100


def _panel_degree(z: float) -> int:
    """Degree n of a panel's interpolant for the phase z = band h: J_n(z) < eps / 50."""
    return int(np.ceil(z + 11 * np.cbrt(z))) + 4


def chebyshev_panels(direct, times: np.ndarray, band: float, work: int) -> np.ndarray:
    """direct(times) for a series of frequencies |omega| <= band, through Chebyshev panels.

    ``direct(t)`` evaluates the series at the 1-D times t, the time on its
    last axis, at a cost of ``work`` multiply-adds per time.  The panel path
    splits [min t, max t] into P equal panels of half-width h with
    z = band h <= PANEL_PHASE, evaluates ``direct`` once at the n + 1
    Chebyshev-Lobatto nodes of every panel and interpolates each panel onto
    its times with the second-kind barycentric formula (weights (-1)^j,
    halved at the ends; Berrut & Trefethen, SIAM Rev. 46, 501 (2004)).  On
    a panel e^{i omega t} has the Chebyshev coefficients 2 i^m J_m(omega h)
    (Jacobi-Anger; Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)), and
    n = ceil(z + 11 z^(1/3)) + 4 keeps J_n(z) below eps / 50 for every
    z <= 1100 (checked against scipy.special.jv on 22000 points), so the
    interpolant is exact to rounding: within a few eps of the sum of the
    series' |coefficients|.  A time that equals a node takes the node's
    value.  Times go to panels by value, so they may come in any order,
    negative or repeated.

    The panel path is taken only when it is cheaper by the cost model
    work P (n + 1) + PANEL_TERM_COST T (n + 1) < work T, so never for
    T <= P (n + 1), a zero-width range or a range that is not finite.
    """
    lo, hi = (times.min(), times.max()) if len(times) else (0.0, 0.0)
    span = hi - lo
    if not (np.isfinite(span) and span > 0 and band > 0):
        return direct(times)
    panels = int(np.ceil(band * span / (2 * PANEL_PHASE)))
    half = span / (2 * panels)
    n = _panel_degree(band * half)
    T = len(times)
    if work * panels * (n + 1) + PANEL_TERM_COST * T * (n + 1) >= work * T:
        return direct(times)
    # panel p is [edges[p], edges[p + 1]], its nodes ascending and its ends exact
    edges = lo + 2 * half * np.arange(panels + 1)
    edges[-1] = hi
    nodes = np.multiply.outer((edges[1:] - edges[:-1]) / 2, -np.cos(np.pi * np.arange(n + 1) / n))
    nodes += ((edges[:-1] + edges[1:]) / 2)[:, None]
    nodes[:, 0], nodes[:, -1] = edges[:-1], edges[1:]
    values = direct(nodes.ravel())
    lead = values.shape[:-1]
    values = values.reshape(-1, panels, n + 1)
    weights = np.where(np.arange(n + 1) % 2, -1.0, 1.0)
    weights[[0, -1]] /= 2
    panel = np.searchsorted(edges[1:-1], times, side="right")
    order = np.argsort(panel, kind="stable")
    starts = np.searchsorted(panel[order], np.arange(panels + 1))
    out = np.empty((len(values), T))
    for p in range(panels):
        for i0 in range(starts[p], starts[p + 1], TRACE_BLOCK):
            idx = order[i0 : min(i0 + TRACE_BLOCK, starts[p + 1])]
            t = times[idx]
            W = np.subtract.outer(t, nodes[p])
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                np.divide(weights, W, out=W)
                den = W.sum(axis=1)
                out[:, idx] = values[:, p] @ W.T / den
            # a time at a node (or within a subnormal of one): that node's value
            hit = ~np.isfinite(den)
            if hit.any():
                at = np.abs(np.subtract.outer(t[hit], nodes[p])).argmin(axis=1)
                out[:, idx[hit]] = values[:, p, at]
    return out.reshape(lead + (T,))


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

    The times are taken in blocks (``phase_blocks``): per block, the
    (M, B) phases, one product of the stacked forms [G_Q; G_P] with the
    sines, and the block's columns of f_Q and f_P.  The working memory is
    O(M B + M^2) for B = max(TRACE_BLOCK, M), besides the O(T) results.
    f_Q and f_P have frequencies s_j +- s_k, at most 2 s_max, so a long
    grid takes them at the nodes of Chebyshev panels and interpolates
    (``chebyshev_panels``), within rounding of the blocks themselves.
    A time that is not finite is refused.
    """
    times = np.asarray(times, dtype=float)
    bad = np.flatnonzero(~np.isfinite(times))
    if len(bad):
        raise ValueError(f"times must be finite; times[{bad[0]}] = {times.flat[bad[0]]}")
    arrow, M = prop.arrow, prop.arrow.modes
    w = _coupled_levels(prop, levels)
    zeros = np.zeros_like(times)
    if not w.any():
        return CurrentTrace(times=times, total=zeros, normal=zeros, anomalous=zeros)
    # G_Q, and with pairing G_P, stacked: one product per block serves both
    bases = [(prop.Q, prop.X)] if arrow.rwa else [(prop.Q, prop.X), (prop.P, prop.X.T)]
    G = np.empty((len(bases), M, M))
    for G_k, (U, X) in zip(G, bases):
        np.multiply(_antisym(w @ U, U[arrow.center]), X, out=G_k)

    def forms(t):
        f = np.empty((len(bases), len(t)))
        for block, cos, sin in phase_blocks(prop.s, t):
            G_sin = (G.reshape(-1, M) @ sin).reshape(len(bases), M, -1)
            f[:, block] = np.einsum("jt,kjt->kt", cos, G_sin)
        return f

    f = chebyshev_panels(forms, times, 2 * prop.s.max(), G.size + PHASE_COST * M)
    f *= -0.5
    if arrow.rwa:
        normal, anomalous = 2 * f[0], zeros
    else:
        normal, anomalous = f[0] + f[1], f[0] - f[1]
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
