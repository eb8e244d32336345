"""Quadratic fermionic operators coupled through one mode, in the Majorana form.

A quadratic operator sum h_ij a_i^dag a_j + (1/2) sum (Delta_ij a_i^dag a_j^dag
+ h.c.) has the Hermitian particle block h and the antisymmetric pairing
block Delta.  A real operator whose modes couple only through one central
mode (the heat valve) is carried by its ``Arrow``: the M x M matrix
K = h + Delta, a diagonal plus the central column (and row).  Its SVD
K = P diag(s) Q^T gives the eigenbasis of the 2M x 2M Nambu matrix
[[h, Delta], [-Delta*, -h^T]] in the Majorana form, and X = Q^T diag(1 - 2n) P
the product state with mode occupations n.  ``arrow_propagator`` solves,
probes and returns them as an ``ArrowPropagator``, from one secular
solver with pairing and under the RWA, in O(M^2).  The secular solver
(``_secular_roots``) is numpy: LAPACK dlasd4's stable method, vectorized
over the roots, with its stopping test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Accumulated-floating-error tolerance for spectral / round-trip checks.
SPECTRAL_TOL = 1e-10


@dataclass(frozen=True)
class Arrow:
    """K = h + Delta of a real quadratic Hamiltonian coupled through one mode.

    Every mode j has its level levels[j] and couples, with the real
    strength couplings[j], only to the central mode c (levels[c] is the
    central level, couplings[c] = 0).  The couplings hop, g_j (a_j^dag a_c +
    h.c.), and unless ``rwa`` also pair, g_j (a_j^dag a_c^dag + h.c.).  So
    K = diag(levels) + g e_c^T + e_c g^T, a symmetric arrowhead, under the
    RWA, and K = diag(levels) + 2 g e_c^T, a broken arrow, with pairing.
    """

    levels: np.ndarray
    couplings: np.ndarray
    center: int
    rwa: bool

    def __post_init__(self):
        self.levels.setflags(write=False)
        self.couplings.setflags(write=False)

    @property
    def modes(self) -> int:
        return len(self.levels)

    @property
    def column(self) -> np.ndarray:
        """K[:, c] off the diagonal: g under the RWA, 2g with pairing."""
        return self.couplings if self.rwa else 2 * self.couplings


@dataclass(frozen=True)
class ArrowPropagator:
    """An arrow realization in the Majorana form: K = P diag(s) Q^T and X.

    s are the quasiparticle energies, in the solver's order (not sorted), P
    and Q the left and right singular vectors of the arrow's K = h + Delta, and
    X = Q^T diag(1 - 2n) P the product state with mode occupations n.  All
    four are real; a complex factor, or one not shaped by the arrow's M, is
    refused.  The arrow is kept, so every current is taken with the arrow
    the factors were solved from.
    """

    arrow: Arrow
    s: np.ndarray
    P: np.ndarray
    Q: np.ndarray
    X: np.ndarray

    def __post_init__(self):
        M = self.arrow.modes
        for name, shape in (("s", (M,)), ("P", (M, M)), ("Q", (M, M)), ("X", (M, M))):
            arr = getattr(self, name)
            if arr.shape != shape or not np.isrealobj(arr):
                raise ValueError(
                    f"{name} must be a real array of shape {shape}, got {arr.dtype} {arr.shape}"
                )
            arr.setflags(write=False)


def _probe_residuals(prop: ArrowPropagator, weights) -> tuple[float, float, float]:
    """Relative residuals of K = P diag(s) Q^T, P^T P = Q^T Q = 1 and X on one probe.

    A fixed pseudo-random vector makes the checks O(M^2) matrix-vector work;
    K v itself is O(M) from the arrow, and X v is checked against
    Q^T (e * P v) for the weights e.
    """
    arrow, s, P, Q = prop.arrow, prop.s, prop.P, prop.Q
    v = np.random.default_rng(0x5EED).standard_normal(arrow.modes)
    norm = np.linalg.norm(v)
    c = arrow.center
    Kv = arrow.levels * v + arrow.column * v[c]
    if arrow.rwa:
        Kv[c] += arrow.couplings @ v
    w = Q.T @ v
    Pv = P @ v
    scale = max(s.max(initial=0.0), 1.0) * norm
    recon = np.linalg.norm(Kv - P @ (s * w)) / scale
    ortho = max(np.linalg.norm(Q @ w - v), np.linalg.norm(P @ (P.T @ v) - v)) / norm
    state = np.linalg.norm(prop.X @ v - Q.T @ (weights * Pv)) / norm
    return float(recon), float(ortho), float(state)


# A root's iteration cap: from the midpoint of its interval a valve's root
# takes three steps, rarely more than seven, and none of 2592 valve arrows
# (N up to 1200, gamma up to 2) took more than 13; LAPACK dlasd4 allows 400
SECULAR_MAX_ITER = 30
# elements in a block of rows (rows x M): the solver and the Löwner and
# vector passes work a block at a time, so that its few arrays stay in cache
_BLOCK = 1 << 16


def _secular_eval(S, u, i0, i1, split=None):
    """F, 1 + sum_j |u_j^2 / D_j| and F' for rows i0..i1 of D = S, which becomes u / D.

    Every pole j < i0 lies left of each of these roots (D < 0) and every
    pole j >= i1 right of it (D > 0), so only the diagonal block needs |.|.
    Given ``split`` (each row's last pole left of its root), also the part
    of F' from the poles left of the root.
    """
    np.divide(u, S, out=S)
    block = S[:, i0:i1]
    f = 1.0 + block @ u[i0:i1]
    size = 1.0 + np.abs(block) @ u[i0:i1]
    if i0:
        left = S[:, :i0] @ u[:i0]
        f += left
        size -= left
    if i1 < S.shape[1]:
        right = S[:, i1:] @ u[i1:]
        f += right
        size += right
    fp = np.einsum("ij,ij->i", S, S)
    if split is None:
        return f, size, fp, fp
    mask = np.arange(i0, i1) <= split[:, None]
    left = np.einsum("ij,ij->i", S[:, :i0], S[:, :i0]) + np.einsum("ij,ij,ij->i", block, block, mask)
    return f, size, fp, left


def _secular_step(state, f, fp, left, done):
    """Each root's next eta, and the bracket narrowed by its F.

    The model is c - w / x + v / (q_n - x) = 0 with the origin pole at 0 and
    one more pole q_n, its weights and constant fitted to F and F' at eta;
    that is c x^2 - (c q_n + w + v) x + w q_n = 0.  It keeps the origin's own
    weight w exactly and puts the rest of F' at q_n (Li's fixed weight).
    q_n is whichever pole weighs most in F' at eta: the interval's other end,
    the pole across the origin (coincident levels moved apart), or pole 0
    (the centre's, which a root at the band's edge feels most).  A root
    whose steps ping-pong across it, F changing sign and falling less than
    twofold, bisects once and from then on takes the middle way: each side
    of the root at its near pole, w = eta^2 F'_origin's side and
    v = (q_n - eta)^2 F'_other side, which sums up a weak origin with its
    stronger neighbours.  The roots are taken without cancellation and in
    the origin's frame, so a root far closer to the origin than eta is
    reached in one step.  The first candidate inside the bracket is taken:
    the smaller root, the other, a Newton step, bisection.  A root that is
    ``done`` takes only the Newton step, if inside.
    """
    eta, lo, hi, q_in = state[:4]
    w, last, middle, origin_left = state[9:]
    m = len(eta)
    np.copyto(hi, eta, where=f > 0)
    np.copyto(lo, eta, where=f < 0)
    slow = f / last < -0.5
    last[...] = f
    # the pole that weighs most in F', w_n / d_n^2: its square root over |d_n|
    d = state[3:6] - eta
    weigh = state[6:9] / np.abs(d)
    pick = weigh.argmax(axis=0)
    cols = np.arange(m)
    qn, dn = state[3:6][pick, cols], d[pick, cols]
    if np.count_nonzero(middle):
        mw = middle > 0
        side = np.where(origin_left > 0, left, fp - left)
        w = np.where(mw, side * eta * eta, w)
        qn, dn = np.where(mw, q_in, qn), np.where(mw, d[0], dn)
    inv = 1 / eta
    r = w * inv
    rest = fp - r * inv  # F' but the origin's own term: v / dn^2 at eta
    v = rest * (dn * dn)
    c = f + r - rest * dn
    A = c * qn + w + v
    wq = w * qn
    big = A + np.copysign(np.sqrt(np.abs(A * A - 4 * c * wq)), A)
    x = (wq + wq) / big
    if np.count_nonzero(slow):
        np.copyto(x, (lo + hi) / 2, where=slow)
        middle[slow] = 1.0
    inside = (lo < x) & (x < hi)
    ndone = np.count_nonzero(done)
    if np.count_nonzero(inside) == m and not ndone:
        return x
    newton = eta - f / fp
    for alternative in (big / (c + c), newton, (lo + hi) / 2):
        if np.count_nonzero(inside) == m:
            break
        np.copyto(x, alternative, where=~inside)
        inside = (lo < x) & (x < hi)
    if ndone:
        np.copyto(x, np.where((lo < newton) & (newton < hi), newton, eta), where=done)
    return x


def _secular_roots(ds, zn, rho):
    """The k roots s_i of 1 + rho sum_j zn_j^2 / (ds_j^2 - s^2), and D2_ij = ds_j^2 - s_i^2.

    ds ascending and distinct, zn of unit norm and nonzero, rho > 0: root i
    lies in (ds_i, ds_{i+1}), the last in (ds_{k-1}^2, ds_{k-1}^2 + rho) as s^2.
    The method is LAPACK ``dlasd4``'s (R.-C. Li, LAPACK Working Note 89,
    1993; Gu & Eisenstat, SIAM J. Matrix Anal. Appl. 16, 1995), vectorized
    over the roots: every root steps at once, and F, F' and sum |terms| of
    the roots still moving are matrix-vector products over blocks of rows of
    D2.  F at the midpoint of each interval picks the nearer pole d_o as the
    origin (the last root's is ds_{k-1}); the unknown is eta = s^2 - d_o^2,
    the poles are q_j = (ds_j - d_o)(ds_j + d_o), so every D2_ij = q_j - eta
    is accurate to a few ulps and no difference of squares is formed.  The
    midpoint's F and F' give the first step; each step solves a two-pole
    rational model (``_secular_step``) inside the root's bracket.  A root
    stops on dlasd4's test, |F| <= 8 eps (1 + sum_j |rho zn_j^2 / D_j| + |eta| F'),
    and then takes the Newton step that evaluation gives.  A root still
    moving after SECULAR_MAX_ITER steps raises LinAlgError naming it.  k = 1
    is the closed form s^2 = ds_0^2 + rho zn_0^2.
    """
    k = len(ds)
    u = np.sqrt(rho) * np.abs(zn)
    w = u * u
    D2 = np.empty((k, k))
    if k == 1:
        D2[0, 0] = -w[0]
        return ds + w / (ds + np.sqrt(ds * ds + w)), D2
    delsq = (ds[1:] - ds[:-1]) * (ds[1:] + ds[:-1])
    half = np.append(delsq, rho) / 2
    starts = np.arange(0, k + max(64, _BLOCK // k), max(64, _BLOCK // k))
    starts[-1] = k
    blocks = list(zip(starts[:-1].tolist(), starts[1:].tolist()))

    work = np.empty((starts[1], k))

    def evaluate(rows, offset, middle=None):
        """F, 1 + sum |terms|, F' and its left part (``middle`` rows) of the roots ``rows``."""
        parts = []
        ends = np.searchsorted(rows, starts).tolist()
        for (i0, i1), a0, a1 in zip(blocks, ends, ends[1:]):
            if a0 < a1:
                r = rows[a0:a1]
                if a1 - a0 == i1 - i0:
                    S = np.subtract(D2[i0:i1], offset[a0:a1, None], out=work[: a1 - a0])
                else:
                    S = np.take(D2, r, axis=0, out=work[: a1 - a0], mode="clip")
                    S -= offset[a0:a1, None]
                split = None if middle is None or not middle[a0:a1].any() else np.minimum(r, k - 2)
                parts.append(_secular_eval(S, u, i0, i1, split))
        return parts[0] if len(parts) == 1 else [np.concatenate(x) for x in zip(*parts)]

    # the origin guessed from the terms of F at the midpoint of poles i,
    # i + 1 and 0 (the centre's, the heaviest in a valve's arrow); a wrong
    # guess costs one more pass over that root's row
    guess = np.zeros(k, bool)
    centre = w[0] / ((ds[1:-1] - ds[0]) * (ds[1:-1] + ds[0]) + half[1:-1])
    guess[:-1] = 1 + (w[1:] - w[:-1]) / half[:-1] - np.append(0.0, centre) < 0
    act = np.arange(k)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # D2 rows = q_j = (ds_j - d_o)(ds_j + d_o) for the origin d_o, and F
        # at the midpoint
        origin = act + guess
        for i0, i1 in blocks:
            o = ds[origin[i0:i1], None]
            np.multiply(ds - o, ds + o, out=D2[i0:i1])
        f, size, fp, left = evaluate(act, np.where(guess, -half, half))
        # F < 0 at the midpoint: the root lies nearer ds_{i+1}
        right = f < 0
        right[-1] = False
        origin = act + right
        wrong = np.flatnonzero(right != guess)
        o = ds[origin[wrong], None]
        D2[wrong] = (ds - o) * (ds + o)
        # per root: eta, its bracket; the q of the interval's other end, of
        # the pole across the origin (+-inf if none) and of pole 0, and the
        # square roots of their weights (0 for none); the origin's weight, the
        # last F, whether it takes the middle way and whether its origin is
        # the interval's left end.  Both of the last root's near poles lie
        # left of it
        sign = 1.0 - 2 * right
        state = np.empty((13, k))
        state[0] = half * sign
        state[1] = np.minimum(state[0], 0.0)
        state[2] = np.maximum(state[0], 0.0)
        state[3, :-1] = delsq * sign[:-1]
        state[4, :-1] = -sign[:-1] * np.concatenate([[np.inf], delsq, [np.inf]])[act[:-1] + 2 * right[:-1]]
        do = ds[origin]
        state[5] = (ds[0] - do) * (ds[0] + do)
        state[6, :-1] = u[act[:-1] + 1 - right[:-1]]
        state[7, :-1] = np.concatenate([[0.0], u, [0.0]])[act[:-1] + 3 * right[:-1]]
        state[8] = np.where(origin > 1, u[0], 0.0)
        state[9] = w[origin]
        state[10] = np.nan
        state[11] = 0.0
        state[12] = ~right
        # the last root lies in (0, rho]: F(rho) >= 0, and = 0 when every other
        # pole is at the origin; its bracket is open, so a hair above rho
        lo, hi = (0.0, half[-1]) if f[-1] >= 0 else (half[-1], rho * (1 + 4 * np.finfo(float).eps))
        state[:5, -1] = half[-1], lo, hi, -delsq[-1], np.inf
        state[6:8, -1] = u[-2], 0.0
        state[12, -1] = 0.0
        eta = np.empty(k)
        tol = 8 * np.finfo(float).eps
        for it in range(SECULAR_MAX_ITER + 1):
            done = np.abs(f) <= tol * (size + np.abs(state[0]) * fp)
            state[0] = _secular_step(state, f, fp, left, done)
            if not it:
                state[10] = np.nan  # the first step is the midpoint's
            if np.count_nonzero(done):
                eta[act[done]] = state[0, done]
                keep = ~done
                act, state = act[keep], state[:, keep]
                if not len(act):
                    break
            if it == SECULAR_MAX_ITER:
                raise np.linalg.LinAlgError(
                    f"secular root {act[0]} of a {k}-root arrow did not "
                    f"converge in {SECULAR_MAX_ITER} steps"
                )
            f, size, fp, left = evaluate(act, state[0], state[11])
        D2 -= eta[:, None]
    do = ds[origin]
    return do + eta / (do + np.sqrt(do * do + eta)), D2


def _broken_arrow_svd(arrow: Arrow, weights: np.ndarray):
    """SVD K = P diag(s) Q^T of an arrow, and X = Q^T diag(e) P, s in root order.

    With pairing, K^T = diag(d) + e_c z^T with z = K[:, c] (the central
    level at c) and d = levels but d_c = 0, and K^T = S A for S = diag(sign d)
    and the broken arrow A = diag(|d|) + e_c z^T, whose squared singular
    values are the eigenvalues of diag(|d|^2) + z z^T (Gu & Eisenstat 1995).
    ``_secular_roots`` finds every root s_i with D2_ij = |d_j|^2 - s_i^2 to
    full relative accuracy.  Löwner's formula recomputes z from the roots,
    which keeps the vectors orthogonal: v_i ~ z_j / D2_ij and
    u_i ~ [-1 at c, |d_j| z_j / D2_ij], with P = V and Q = S U.  No difference
    of squares is formed as d_j^2 - s_i^2.  As in LAPACK ``dlasd2``, for
    tol = 8 eps max(|d|, |z|) a coupling |z_j| <= tol is deflated (s = |d_j|
    with unit vectors) and a centre |z_c| <= tol is raised to tol; coupled
    poles |d| closer than eps max(|d|, |z|), a level at the centre's pole 0
    included, are moved that far apart.  Each change is a backward error of
    O(eps ||K||), so every arrow is solved.

    X is a Löwner matrix of the same vectors: with F_i = sum_j e_j d_j z_j^2 / D2_ij
    and F'_i = sum_j e_j d_j z_j^2 / D2_ij^2,
    X_ik |u_i| |v_k| = (F_i - F_k) / (s_i^2 - s_k^2) + e_c z_c / s_k^2, and
    F'_i in place of the quotient on the diagonal.  s_i^2 - s_k^2 is taken
    as D2_kj - D2_ij at the pole j nearest root i, which keeps close roots
    accurate; deflated modes give the diagonal e_j sign d_j.  O(M^2) work
    in three passes over blocks of rows (the Löwner product with the rows of
    X gathered at the nearest poles; the vectors, written in mode order; X),
    with three M x M arrays.

    Under the RWA, K + mu = L L^T for mu = 2 (max|d| + ||g||) (1 if K = 0),
    with L^T the broken arrow of levels sqrt(d + mu), column g / sqrt(d + mu)
    and centre sqrt(d_c + mu - sum g^2 / (d + mu)); mu > ||K|| keeps K + mu
    positive definite, and a shift on the arrow's own scale keeps l accurate
    relative to ||K||.  Its Q diagonalizes K with l = (s - sqrt mu)(s + sqrt mu):
    K = (Q sign l) diag(|l|) Q^T and X = (Q^T diag(e) Q) sign l, the Löwner
    matrix with e_j |d_j|^2 in F, e_c as the rank-one term and |u| on both
    sides.

    The arrow is solved as K 2^-p, with the even p that puts its largest
    entry in [1/4, 1), and s is scaled back: a power of two changes no
    rounding, so P, Q, X and s are those of K itself, while the secular
    steps' squares of squares stay inside the float range.  A
    coupling whose square |g|^2 overflows is refused with a ValueError.

    The singular values (and the columns of P and Q, the rows and columns of
    X) come in the solver's order: the k roots ascending, then the deflated
    modes.  Raises LinAlgError if a secular root does not converge.
    """
    M, c, rwa = arrow.modes, arrow.center, arrow.rwa
    # K 2^-p, its largest entry in [1/4, 1) for an even p (sqrt(mu) under the
    # RWA scales by 2^(-p/2))
    p = np.frexp(max(np.abs(arrow.levels).max(), np.abs(arrow.couplings).max()))[1]
    p += p % 2
    levels, couplings = np.ldexp(arrow.levels, -p), np.ldexp(arrow.couplings, -p)
    with np.errstate(over="ignore"):
        if not np.isfinite(np.ldexp(couplings @ couplings, 2 * p)):
            raise ValueError(
                f"coupling scale max|g| = {np.abs(arrow.couplings).max():.3g} is too large: "
                "|g|^2 overflows (|g| must stay below about 1e154)"
            )
    if rwa:
        mu = 2 * (np.abs(levels).max() + np.linalg.norm(couplings)) or 1.0
        d = np.sqrt(levels + mu)
        z = couplings / d
        z[c] = np.sqrt(levels[c] + mu - z @ z)
    else:
        d, z = levels.copy(), 2 * couplings
        z[c] = levels[c]
    d[c] = 0.0
    # K = 0 has no scale of its own; any will do
    scale = max(np.abs(d).max(), np.abs(z).max()) or 1.0
    tol = 8 * np.finfo(float).eps * scale
    if abs(z[c]) <= tol:
        z[c] = tol
    # sorted order: c, then the coupled modes by |d|, then the deflated ones
    rest = np.delete(np.arange(M), c)
    coupled = np.abs(z[rest]) > tol
    live = rest[coupled]
    perm = np.concatenate([[c], live[np.argsort(np.abs(d[live]), kind="stable")], rest[~coupled]])
    k = 1 + len(live)
    ds, zs = np.abs(d[perm]), z[perm]
    sign = np.where(d[perm] < 0, -1.0, 1.0)
    gap = tol / 8
    if np.any(np.diff(ds[:k]) < gap):
        for j in range(1, k):
            ds[j] = max(ds[j], ds[j - 1] + gap)
    rho = float(zs[:k] @ zs[:k])
    # D2[i, j] = ds_j^2 - s_i^2, roots ascending; a row is a root, a column a
    # mode in the sorted order.  The deflated columns hold 1 (z-hat is 0 there)
    sig, D2 = _secular_roots(ds[:k], zs[:k] / np.sqrt(rho), rho)
    if k < M:
        D2 = np.concatenate([D2, np.ones((k, M - k))], axis=1)
    # by interlacing root i lies between poles i and i + 1; the nearer, and
    # s_i^2 minus its square
    i = np.arange(k)
    nearest = i.copy()
    nearest[:-1] += np.abs(D2[i[:-1], i[:-1] + 1]) < np.abs(D2[i[:-1], i[:-1]])
    eta = -D2[i, nearest]
    rows = max(1, _BLOCK // M)

    # Löwner: z_j^2 = prod_i (ds_j^2 - s_i^2) / prod_{m != j} (ds_j^2 - ds_m^2),
    # root i < k - 1 over pole m = i for i < j and m = i + 1 for i >= j, so
    # that by interlacing every ratio lies in (0, 1); root k - 1 left over.
    # ds_j^2 - ds_m^2 is D2_ij - D2_im, two terms of opposite sign.  The same
    # pass gathers Y[l, i] = D2[l, j] at the pole j nearest root i
    Y = np.zeros((M, M)) if k < M else np.empty((M, M))
    prod = np.ones(k)
    for i0 in range(0, k, rows):
        i1 = min(i0 + rows, k)
        np.take(D2[i0:i1], nearest, axis=1, out=Y[i0:i1, :k], mode="clip")
        n = min(i1, k - 1) - i0
        if n <= 0:
            continue
        D = D2[i0 : i0 + n, :k]
        r = np.arange(i0, i0 + n)
        den = np.empty_like(D)
        np.subtract(D[:, :i0], D2[r, r + 1][:, None], out=den[:, :i0])
        np.subtract(D[:, i0:], D2[r, r][:, None], out=den[:, i0:])
        block = den[:, i0 : i0 + n]
        block[...] = np.where(r[:, None] >= r, D[:, i0 : i0 + n] - D2[r, r + 1][:, None], block)
        np.divide(D, den, out=den)
        den[0] *= prod
        prod = den.prod(axis=0)
    zhat = np.zeros(M)
    zhat[:k] = np.copysign(np.sqrt(np.abs(prod * D2[k - 1, :k])), zs[:k])

    # from here on a row is a singular value, the k roots and then the
    # deflated modes, as P, Q and X hold them
    s = np.concatenate([sig, ds[k:]])
    flip = np.ones(M)
    if rwa:
        lam = (s - np.sqrt(mu)) * (s + np.sqrt(mu))
        s = np.abs(lam)
        flip[lam < 0] = -1.0
    e, signed = weights[perm], sign * ds
    # the Löwner weights e d, or e |d|^2 under the RWA (sign = 1 there)
    weighted = e * signed * ds if rwa else e * signed
    # the vectors v_i = zhat / D2[i] as rows, in mode order: Q^T = U / |u|
    # with U = V signed d and U[:, c] = -1, P^T = V / |v| (Q^T sign l under
    # the RWA); |u|^2 = 1 + sum_j V_ij^2 ds_j^2
    modes = np.argsort(perm)
    zhat_m, signed_m = zhat[modes], signed[modes]
    wz_m = (weighted * zhat)[modes]
    sums_m = np.stack([weighted, np.ones(M), ds * ds], axis=1)[modes]
    F, dF, v0 = np.empty(k), np.empty(k), np.empty(k)
    norm_u, norm_v = np.ones(M), np.ones(M)
    PT = D2 if k == M else np.zeros((M, M))
    QT = np.zeros((M, M)) if k < M else np.empty((M, M))
    for i0 in range(0, k, rows):
        i1 = min(i0 + rows, k)
        V = D2[i0:i1].take(modes, axis=1)
        np.divide(zhat_m, V, out=V)
        F[i0:i1] = V @ wz_m
        dF[i0:i1], vv, uu = ((V * V) @ sums_m).T
        v0[i0:i1] = V[:, c]
        norm_u[i0:i1] = np.sqrt(1 + uu)
        norm_v[i0:i1] = norm_u[i0:i1] if rwa else np.sqrt(vv)
        U = np.multiply(V, signed_m, out=QT[i0:i1])
        U[:, c] = -1.0
        U *= 1 / norm_u[i0:i1, None]
        if not rwa:
            np.multiply(V, 1 / norm_v[i0:i1, None], out=PT[i0:i1])
    # the deflated modes: unit vectors
    PT[range(k, M), perm[k:]] = 1.0
    QT[range(k, M), perm[k:]] = sign[k:]
    if rwa:
        np.multiply(QT, flip[:, None], out=PT)

    # X_il |u_i| |v_l| in Y[l, i] (|u_l| under the RWA), with
    # Y[l, i] + eta_i = s_i^2 - s_l^2; the diagonal (0) is held at 1
    # through the division, then set
    e_c = e[0]
    for l0 in range(0, k, rows):
        l1 = min(l0 + rows, k)
        Yc = Y[l0:l1, :k]
        Yc += eta
        block = Yc[:, l0:l1]
        np.fill_diagonal(block, 1.0)
        np.divide(F - F[l0:l1, None], Yc, out=Yc)
        np.fill_diagonal(block, dF[l0:l1])
        if rwa:
            Yc += e_c
        else:
            Yc -= (e_c * v0[l0:l1])[:, None]
        Yc *= (flip[l0:l1] / norm_v[l0:l1])[:, None]
        Yc *= 1 / norm_u[:k]
    Y[range(k, M), range(k, M)] = (e * sign * flip)[k:]
    return np.ldexp(s, p), PT.T, QT.T, Y.T


def arrow_propagator(arrow: Arrow, occupations) -> ArrowPropagator:
    """An arrow's realization in the product state with mode occupations n.

    ``_broken_arrow_svd`` solves every arrow, with pairing or under the RWA,
    coincident and zero levels included, for the weights e = 1 - 2n, and
    writes X = Q^T diag(e) P down as a Löwner matrix, in O(M^2); s is in its
    order, not sorted.  Every result is probed: K v = P diag(s) Q^T v,
    P^T P v = v, Q^T Q v = v and X v = Q^T (e * P v) for one fixed vector v,
    each to SPECTRAL_TOL, or ValueError (a NaN residual included).
    """
    occupations = np.asarray(occupations, dtype=float)
    if occupations.shape != (arrow.modes,):
        raise ValueError(
            f"occupations must have shape ({arrow.modes},), got {occupations.shape}"
        )
    weights = 1 - 2 * occupations
    prop = ArrowPropagator(arrow, *_broken_arrow_svd(arrow, weights))
    recon, ortho, state = _probe_residuals(prop, weights)
    if not all(r <= SPECTRAL_TOL for r in (recon, ortho, state)):
        raise ValueError(
            f"arrow SVD failed its probe: reconstruction residual {recon:.3e}, "
            f"orthogonality residual {ortho:.3e}, rotated-state residual {state:.3e}"
        )
    return prop
