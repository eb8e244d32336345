"""Heat-current traces and window means of a solved arrow realization.

The Hamiltonian is time independent, so chi(t) = e^{-iHt} chi(0) e^{iHt}.
A realization is its ``nambu.ArrowPropagator``: the evolution turns the
pair of singular bases through cos(st) and sin(st).  Heat currents
d<H_bath>/dt = -(1/2i) tr(chi(t) [H_bath, H]) take H_bath as the vector
of its mode energies (``valve.bath_levels``).  The bath couples only to
the central mode, so the commutator is written down from the central
column, and each part of the current is an M x M bilinear form in cos(st)
and sin(st), evaluated by one routine (``_forms``) for traces and window
means alike.  The state enters as the propagator's Löwner rows, with every
scaling folded into O(M) vectors, so no M x M array is formed beside the
propagator's D2.  The time grid is taken in near-equal blocks of at most
B = max(TRACE_BLOCK, M) times (fewer past PHASE_BYTES), the phases of every
block written into one pair of buffers from one tan(st/2) per entry
(``phase_blocks``), and each form a slice of FORM_ROWS rows at a time, so
the working memory is O(M B), not O(M T).  A long grid oversamples the
forms, whose frequencies lie in the current's band (``_band``): 2 s_max
with pairing, and max(l) - min(l) of the signed energies under the RWA,
whose current holds only their differences.  The forms are then evaluated
at the nodes of Chebyshev panels and interpolated onto the grid
(``chebyshev_panels``), with the panel count that minimizes a measured
cost model, when that costs less than the grid itself.  A window mean is
the mean of the current on the window's samples (``window_mean_current``),
taken by the Gauss rule of the samples' uniform measure (``_gram_rule``)
for the same band: the forms at about half the nodes that interpolation
needs, and none at the samples.
"""

from __future__ import annotations

import functools
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


# Times that _forms (and ``analytics.anomalous_current_discrete``) phases
# and contracts at once: a grid is cut into near-equal blocks of at most
# B = max(TRACE_BLOCK, M) times, so the working set is a few (M x B)
# arrays, not (M x T) ones.  At M = 501 (one thread) blocks of 256 and 512
# ran an exact T = 5001 trace within noise of each other (28 ms) and 1024
# took 33 ms.  Every block rebuilds the
# Löwner rows and the forms' rows: for heat_current at M = 2001, T = 10001
# fixed blocks of 512 ran 16% slower than blocks of M (684 vs 590 ms),
# hence at least M times.
TRACE_BLOCK = 512
# Most bytes of the pair of phase buffers, cos and sin, that phase_blocks
# holds: B is cut to PHASE_BYTES / (16 M) times, but not below TRACE_BLOCK,
# so every M <= 2048 keeps B = max(TRACE_BLOCK, M).
PHASE_BYTES = 64 * 2**20


def phase_blocks(s: np.ndarray, times: np.ndarray):
    """Yield (block, cos, sin): a slice of the times, cos(s t) and sin(s t) on it.

    The times are split into the fewest near-equal blocks of at most
    B = max(TRACE_BLOCK, min(M, PHASE_BYTES / (16 M))) times for M = len(s):
    at B = 512, 696 times make two blocks of 348.  cos and sin are
    (M, len(block)) views of one pair of buffers allocated per call, which
    every block overwrites: a block's arrays are valid only until the next
    block is requested, so a caller that keeps them copies them.  They come
    from one tan per entry: with u = tan(x/2) and r = 2/(1 + u^2),
    cos x = (1 - u^2)/(1 + u^2) = r - 1 and sin x = 2u/(1 + u^2) = u r, each
    within 2 eps absolute, and exactly (1, 0) at x = 0.  numpy's tan is
    several times faster than its cos and sin (numpy 2.4, x86-64).  x/2 is
    formed as s (t/2), an exact halving of fl(s t).  Beside an odd multiple
    of pi u is large, but no double reaches the pole, so u^2 stays finite and
    cos tends to -1, sin to 2/u.
    """
    half = np.asarray(times, dtype=float) / 2
    M, T = len(s), len(half)
    if not T:
        return
    most = max(TRACE_BLOCK, min(M, PHASE_BYTES // (16 * max(M, 1))))
    blocks = -(-T // most)
    size = -(-T // blocks)
    # flat buffers, so that a shorter last block is still a contiguous (M, n) array
    u_buf, r_buf = np.empty((2, M * size))
    t1 = 0
    for b in range(blocks):
        t0, t1 = t1, t1 + T // blocks + (b < T % blocks)
        u = np.multiply.outer(s, half[t0:t1], out=u_buf[: M * (t1 - t0)].reshape(M, -1))
        np.tan(u, out=u)
        r = np.multiply(u, u, out=r_buf[: M * (t1 - t0)].reshape(M, -1))
        r += 1
        np.divide(2, r, out=r)
        sin = np.multiply(u, r, out=u)
        yield slice(t0, t1), np.subtract(r, 1, out=r), sin


# The panel path's cost model, in multiply-adds of the direct path's form
# product (about 0.033 ns each at M = 501 and 2001, one thread): one phase
# entry (``phase_blocks``, about 8.5 ns) and one barycentric (time, node)
# term (about 3.3 ns), the ratio c/k.
PHASE_COST = 250
PANEL_TERM_COST = 100


# Largest phase z for which _panel_degree is checked (tests/test_evolution.py).
PANEL_DEGREE_PHASE_MAX = 1100.0


def _panel_degree(z):
    """Degree n of a panel's interpolant for the phase z = band h: J_n(z) < eps / 50.

    z may be an array, and n is then one integer per entry.
    """
    return np.ceil(z + 11 * np.cbrt(z)).astype(int) + 4


def _panel_count(band: float, span: float, T: int, work: int):
    """(P, n): the panel count that minimizes the panel path's cost, and its degree; None if direct.

    The cost (work P + PANEL_TERM_COST T)(n + 1), n = _panel_degree(z) for
    z = band span / (2P), is taken at once over every P from the fewest
    panels with z <= PANEL_DEGREE_PHASE_MAX up to T / 6: a panel has
    n + 1 >= 6 nodes, so more panels would phase more than the T times
    themselves.  None when no P costs less than the direct path's work T.
    """
    fewest = max(1, int(np.ceil(band * span / (2 * PANEL_DEGREE_PHASE_MAX))))
    panels = np.arange(fewest, T // 6 + 1)
    if not len(panels):
        return None
    n = _panel_degree(band * (span / (2 * panels)))
    cost = (work * panels + PANEL_TERM_COST * T) * (n + 1.0)
    i = int(cost.argmin())
    if cost[i] >= work * T:
        return None
    return int(panels[i]), int(n[i])


def chebyshev_panels(direct, times: np.ndarray, band: float, work: int) -> np.ndarray:
    """direct(times) for a series of frequencies |omega| <= band, through Chebyshev panels.

    ``direct(t)`` evaluates the series at the 1-D times t, the time on its
    last axis, at a cost of ``work`` multiply-adds per time.  The panel path
    splits [min t, max t] into P equal panels of half-width h, evaluates
    ``direct`` once at the n + 1 Chebyshev-Lobatto nodes of every panel and
    interpolates each panel onto its times with the second-kind barycentric
    formula (weights (-1)^j, halved at the ends; Berrut & Trefethen, SIAM
    Rev. 46, 501 (2004)).  On a panel e^{i omega t} has the Chebyshev
    coefficients 2 i^m J_m(omega h) (Jacobi-Anger; Tal-Ezer & Kosloff,
    J. Chem. Phys. 81, 3967 (1984)), and n = ceil(z + 11 z^(1/3)) + 4 for
    z = band h keeps J_n(z) below eps / 50 for every
    z <= PANEL_DEGREE_PHASE_MAX = 1100 (checked against scipy.special.jv), so the
    interpolant is exact to rounding: within a few eps of the sum of the
    series' |coefficients|.  A time that equals a node takes the node's
    value.  Times go to panels by value, so they may come in any order,
    negative or repeated.

    P is the argmin of the cost model work P (n + 1) + PANEL_TERM_COST T (n + 1)
    (``_panel_count``), and the panel path is taken only when that is below
    the direct path's work T.  Every P needs at least
    P (z + 11 z^(1/3) + 5) >= Z + 11 Z^(1/3) + 5 nodes, Z = band span / 2, so
    a grid of no more times, every window mean's among them, goes to
    ``direct`` before any search, as do a zero-width range and one that is
    not finite.
    """
    lo, hi = (times.min(), times.max()) if len(times) else (0.0, 0.0)
    span = hi - lo
    if not (np.isfinite(span) and span > 0 and band > 0):
        return direct(times)
    T = len(times)
    Z = band * span / 2
    plan = None if T <= Z + 11 * np.cbrt(Z) + 5 else _panel_count(band, span, T, work)
    if plan is None:
        return direct(times)
    panels, n = plan
    half = span / (2 * panels)
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


# Rows of L (and of each form G) that _forms builds at once, inside each
# block of times: its working set is a few (FORM_ROWS x M) slices, not an
# M x M array.  At M = 501 (one thread) 128 rows ran an exact T = 5001 trace
# about 6% faster (25 vs 27 ms), but the window mean at M = 2001 took 55
# against 47 ms and held 12 MB beside D2 against 8 MB.
FORM_ROWS = 64


def _check_phases(s_max: float, times: np.ndarray) -> None:
    """Refuse times with s_max |t| >= 1/eps, where fl(s t) keeps no digit of the phase."""
    t = float(times[np.abs(times).argmax()]) if len(times) else 0.0
    if not s_max * abs(t) * np.finfo(float).eps < 1:
        raise ValueError(
            f"phase s_max*|t| = {s_max * abs(t):.3g} is beyond 1/eps at t={t} for the "
            f"highest quasiparticle energy s_max={s_max:.6g}: no phase s t is resolved"
        )


def _band(prop: nambu.ArrowPropagator) -> float:
    """The most |omega| among the frequencies of the realization's current.

    With pairing the forms' frequencies are s_j +- s_k: the band is 2 s_max.
    Under the RWA X = (Q^T diag(e) Q) diag(flip), so G_Q diag(flip) is
    antisymmetric, and with the signed energies l = flip s of K,
    cos(s t) = cos(l t) and sin(s t) = flip sin(l t), the form is
    (1/2) sum_jk (G_Q)_jk flip_k sin((l_k - l_j) t): only the differences of
    the l enter, and the band is max(l) - min(l) over the k roots, about half
    of 2 s_max.
    """
    if not prop.arrow.rwa:
        return 2 * float(prop.s.max(initial=0.0))
    l = (prop.s * prop.flip)[: prop.roots]
    return float(l.max() - l.min())


def _forms(prop: nambu.ArrowPropagator, w: np.ndarray, parts: int, times: np.ndarray,
           band: float):
    """f_k(t) = cos(st)^T G_k sin(st) for k < parts, a (parts, T) array.

    G_0 = X * (b a^T - a b^T) with a = Q^T w and b = Q[c, :], and G_1 the
    same from X^T and P.  Only the k roots enter: a deflated mode's X is
    diagonal, where b a^T - a b^T is 0.  With X_il = beta_i (L_li + r_l) alpha_l
    (``ArrowPropagator.state_scales``) every scaling folds into O(M) vectors:
    G_0^T = L * (A C^T - B D^T) plus a rank-one term, with A, B = alpha (a, b)
    on the rows of L and C, D = beta (b, a) on its columns, and G_1 the same
    from P's a, b with cos and sin swapped.  The rank-one term's share is
    (r A . sin)(C . cos) - (r B . sin)(D . cos), O(M) per time.  In each
    block of times (``phase_blocks``) L is made FORM_ROWS rows at a time
    (``ArrowPropagator.lowner``), and the slice serves both forms; a long
    grid goes through ``chebyshev_panels`` on the current's band ``band``
    (``_band``).  Times with s_max |t| >= 1/eps, where fl(s t) keeps no digit
    of the phase, are refused.
    """
    s, k = prop.s, prop.roots
    s_max = float(s.max(initial=0.0))
    _check_phases(s_max, times)
    alpha, beta, r = prop.state_scales()
    # a = Q^T w and b = Q^T e_c = Q[c, :], and P's, on the roots
    a, ap = (x[:k] for x in prop.project(w))
    b, bp = prop.centre_rows()
    # G_k^T = L * (left^T @ right) + the rank-one term, left (2 x k) on the
    # rows of L and right (2 x k) on its columns: f_Q's rows on sin, f_P's on cos
    lefts, rights = alpha * np.stack([a, -b, bp, -ap]), beta * np.stack([b, a, ap, bp])
    factors = [(lefts[i : i + 2], rights[i : i + 2]) for i in (0, 2)]
    rank_one = [r * left for left, _ in factors]

    def direct(t):
        f = np.zeros((parts, len(t)))
        for block, cos, sin in phase_blocks(s[:k], t):
            sides = ((sin, cos), (cos, sin))[:parts]
            for j0 in range(0, k, FORM_ROWS):
                j1 = min(j0 + FORM_ROWS, k)
                L = prop.lowner(j0, j1)
                for f_k, (left, right), (row, col) in zip(f, factors, sides):
                    G = left[:, j0:j1].T @ right
                    G *= L
                    f_k[block] += np.einsum("jt,jt->t", row[j0:j1], G @ col)
            for f_k, (_, right), r_left, (row, col) in zip(f, factors, rank_one, sides):
                f_k[block] += np.einsum("jt,jt->t", r_left @ row, right @ col)
        return f

    return chebyshev_panels(direct, times, band, parts * k * k + PHASE_COST * k)


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
    a = Q^T w and b = Q[c, :], and f_P is the same with X^T and P
    (``_forms``).  Under the RWA P = Q sign(l) makes G_P = G_Q, so the
    normal part is 2 f_Q (f_P is not evaluated) and the anomalous part
    exactly zero; so is a current with w = 0.

    Each form is built FORM_ROWS rows at a time in each block of at most
    B = max(TRACE_BLOCK, M) times: no M x M form, and O(M B) working
    memory beside the propagator's D2 and the O(T) results.  f_Q and f_P
    have frequencies s_j +- s_k, at most 2 s_max; under the RWA f_Q has the
    differences l_j - l_k of the signed energies alone, at most
    max(l) - min(l), about half of that (``_band``).  So a long grid takes
    the forms at the nodes of Chebyshev panels and interpolates
    (``chebyshev_panels``), within rounding of the blocks themselves: at
    M = 501 and T = 5001 (one thread) about 24 ms with pairing and 10 ms
    under the RWA.  Times that are not finite, or whose phase s_max |t|
    reaches 1/eps, are refused.
    """
    times = np.asarray(times, dtype=float)
    bad = np.flatnonzero(~np.isfinite(times))
    if len(bad):
        raise ValueError(f"times must be finite; times[{bad[0]}] = {times.flat[bad[0]]}")
    w = _coupled_levels(prop, levels)
    zeros = np.zeros_like(times)
    if not w.any():
        return CurrentTrace(times=times, total=zeros, normal=zeros, anomalous=zeros)
    f = _forms(prop, w, 1 if prop.arrow.rwa else 2, times, _band(prop))
    f *= -0.5
    if prop.arrow.rwa:
        normal, anomalous = 2 * f[0], zeros
    else:
        normal, anomalous = f[0] + f[1], f[0] - f[1]
    return CurrentTrace(times=times, total=normal + anomalous, normal=normal, anomalous=anomalous)


MIN_WINDOW_SAMPLES = 10


def _in_window(times: np.ndarray, window) -> np.ndarray:
    return (times >= window[0]) & (times <= window[1])


def window_times(window, time_step) -> np.ndarray:
    """The time grid of a steady-state window: t_lo, t_lo + dt, ... up to t_hi.

    The samples are those of ``np.arange`` inside [t_lo, t_hi], so the last
    one is dropped when arange rounds it past t_hi: [20, 50] at dt 0.05 gives
    600 samples, without 50, and [200, 400] at dt 0.5 gives all 401.
    """
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


@functools.lru_cache(maxsize=64)
def _gram_rule(T: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule of n nodes for the mean over the samples 0, 1, ..., T - 1: (nodes, weights).

    sum_j weights_j p(nodes_j) = mean_i p(i) for every polynomial p of degree
    <= 2n - 1.  Golub-Welsch (Math. Comp. 23, 221 (1969)): the nodes are the
    eigenvalues of the Jacobi matrix of the monic discrete Chebyshev (Gram)
    polynomials on 0..T-1, diagonal (T - 1)/2 and off-diagonal sqrt(beta_k)
    with beta_k = k^2 (T^2 - k^2) / (4 (4k^2 - 1)) (Gautschi, Orthogonal
    Polynomials (2004)), taken scaled to [-1, 1], and the weights the squared
    first components of its eigenvectors.  The weights are positive with
    sum 1 and the nodes lie inside (0, T - 1); once n^2 is some 20 T or
    more the outer nodes close on the outer samples, to rounding.  For
    n >= T the rule is the samples themselves, weights 1/T.  Both arrays
    are read-only.
    """
    if n >= T:
        nodes, weights = np.arange(T, dtype=float), np.full(T, 1 / T)
    else:
        half = (T - 1) / 2
        k = np.arange(1.0, n)
        off = np.sqrt(k * k * (T * T - k * k) / (4 * (4 * k * k - 1))) / half
        y, v = np.linalg.eigh(np.diag(off, -1))  # eigh reads the lower triangle
        nodes, weights = half * (1 + y), v[0] ** 2
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _window_rule(t0: float, dt: float, T: int, band: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights whose sum is the mean over the samples t0 + i dt, i < T, of the current.

    The current's frequencies are at most ``band`` (``_band``), so on a run
    of samples of span S it is a polynomial of degree
    D = ``_panel_degree``(band S / 2) to eps / 50 of its coefficients, and
    the Gauss rule of ceil((D + 1)/2) nodes (``_gram_rule``) averages it
    exactly.  _panel_degree is checked up
    to z = PANEL_DEGREE_PHASE_MAX, so the samples are split into the fewest
    consecutive, near-equal runs each within it, each run's rule weighted by
    its share of the samples.
    """
    z = band / 2 * dt  # phase per sample
    per_run = int(PANEL_DEGREE_PHASE_MAX / z) + 1 if z > 0 else T
    runs = -(-T // per_run)
    nodes, weights = [], []
    i0 = 0
    for r in range(runs):
        size = T // runs + (r < T % runs)
        x, v = _gram_rule(size, int(_panel_degree(z * (size - 1)) + 2) // 2)
        nodes.append(t0 + (i0 + x) * dt)
        weights.append(v * (size / T))
        i0 += size
    return np.concatenate(nodes), np.concatenate(weights)


# Largest share of a window mean that the rule's phase rounding may reach, bounded
# by eps s_max max|t| max|f| over its nodes; past it the mean is taken on the
# samples.  The bound overstates the rule's error some 30-fold (mpmath, M = 3
# and 7), so a rule's mean stays within about 1e-12 of itself of the samples'.
ROUNDING_SHARE = 1e-11


def window_mean_current(prop: nambu.ArrowPropagator, levels, window, time_step) -> float:
    """Mean over the samples of ``window_times`` of the ``heat_current`` total.

    The total is 2 f_Q for every arrow (``heat_current``), so the mean is
    that of -cos(st)^T G_Q sin(st) over the samples, one form (``_forms``).
    A Gauss rule exact on the samples (``_window_rule``) takes it at about
    (z + 11 z^(1/3))/2 nodes for z = band (t_hi - t_lo) / 2 on the
    current's own band (``_band``), not at every sample: with pairing
    (band 2 s_max) 53-55 nodes for the 600 samples of [20, 50] at dt 0.05 and
    M = 121, 243-246 for the 4000 of [200, 400]; under the RWA, whose band
    is about half that, 34-35 and 130-137.  Every grid of nodes is short
    enough that ``chebyshev_panels`` sends it to the direct path before it
    searches for panels.  Its nodes are not samples, so its phases round
    differently; where that rounding, at most eps s_max max|t| max|f| at a
    node, could reach ROUNDING_SHARE of the mean, the mean is taken on the
    samples instead.  Exact at M = 2401 (one thread, dt 0.05) [20, 50] took
    57-59 ms and [200, 400] 101-106 ms, against 70 and 220-247 ms
    interpolating the samples from panels; RWA at M = 1201 on [200, 400]
    19-23 ms, against 25-30 ms with the rule of 2 s_max.

    The sample mean is the current's time average only if the samples
    resolve its highest frequency, 2 s_max: a time step with
    s_max dt >= pi/2 undersamples it and is refused, and so are samples
    whose phase s_max |t| reaches 1/eps.
    """
    w = _coupled_levels(prop, levels)
    times = window_times(window, time_step)
    _check_sample_count(len(times), window)
    s_max = float(prop.s.max(initial=0.0))
    if s_max * time_step >= np.pi / 2:
        raise ValueError(
            f"time_step dt={time_step} aliases the window mean: s_max*dt = "
            f"{s_max * time_step:.4g} >= pi/2 for the highest quasiparticle energy "
            f"s_max={s_max:.6g}; need dt < pi/(2 s_max) = {np.pi / (2 * s_max):.6g}"
        )
    if not w.any():
        return 0.0  # G_Q is exactly zero
    _check_phases(s_max, times)
    # the samples' own spacing: numpy's arange steps by fl(t_lo + dt) - t_lo, not dt
    step = (times[-1] - times[0]) / (len(times) - 1)
    band = _band(prop)
    nodes, weights = _window_rule(times[0], step, len(times), band)
    f = _forms(prop, w, 1, nodes, band)[0]
    mean = weights @ f
    rounding = np.finfo(float).eps * s_max * np.abs(times).max() * np.abs(f).max()
    if not rounding <= ROUNDING_SHARE * abs(mean):
        mean = _forms(prop, w, 1, times, band)[0].mean()
    return float(-mean)
