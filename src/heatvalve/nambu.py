"""Quadratic fermionic operators coupled through one mode, in the Majorana form.

A quadratic operator sum h_ij a_i^dag a_j + (1/2) sum (Delta_ij a_i^dag a_j^dag
+ h.c.) has the Hermitian particle block h and the antisymmetric pairing
block Delta.  A real operator whose modes couple only through one central
mode (the heat valve) is carried by its ``Arrow``: the M x M matrix
K = h + Delta, a diagonal plus the central column (and row).  Its SVD
K = P diag(s) Q^T gives the eigenbasis of the 2M x 2M Nambu matrix
[[h, Delta], [-Delta*, -h^T]] in the Majorana form, and X = Q^T diag(1 - 2n) P
the product state with mode occupations n.  ``arrow_propagator`` solves and
probes them, from one secular solver with pairing and under the RWA, in
O(M^2), and returns them as an ``ArrowPropagator``: the secular table D2,
its one M x M array, and O(M) vectors, from which rows of P, Q and X are
made on demand.  The secular solver (``_secular_roots``) is numpy: LAPACK
dlasd4's stable method, vectorized over the roots, with its stopping test.
``arrow_propagators`` solves consecutive small arrows of one kind and root
count as a stack, every root of every arrow in one iteration, each arrow
to the bits it gets alone; ``arrow_propagator`` is the stack of one.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, fields

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
    """An arrow realization in the Majorana form, K = P diag(s) Q^T and X, as O(M) vectors and D2.

    s are the quasiparticle energies, in the solver's order (the k roots
    ascending, then the deflated modes; not sorted).  ``perm`` sorts the
    modes as the solver's poles: the centre, the k - 1 coupled modes by
    |level|, then the deflated ones.  The only 2-D array is the secular
    table D2 (k x k), D2_ij = ds_j^2 - s_i^2 for root i and pole j, from
    which every block of rows is made on demand:

    - the Cauchy rows V = zhat / D2 (``cauchy``) give the singular vectors
      of the roots, Q^T = (V diag(signed) - 1 e_c^T) / |u| and P^T = V / |v|
      (flip Q^T under the RWA), over the poles ``perm[:k]``;
    - the Löwner rows L_li = (F_i - F_l) / (s_i^2 - s_l^2), F'_l on the
      diagonal (``lowner``), give the state of the roots,
      X_il = (L_li + r_l) flip_l / (|u_i| |v_l|), with the rank-one
      r = e_c (RWA) or -e_c V[:, 0] (pairing);
    - a deflated mode j >= k is its own pole: its rows of P^T and Q^T are
      flip_j and sign_j (the sign of its level) at mode perm_j, and
      X_jj = e_j sign_j flip_j.

    zhat, signed, F, F' (``dF``) and |v| are those of the arrow as the
    solver scaled it (K 2^-p); s is K's own.  V[:, 0] and the nearest pole's
    D2_ij are O(k) to rebuild and not stored; ``nearest`` is kept, as every
    ``lowner`` slice would rebuild it (one thread: 7 against 33 us for 64
    rows at M = 121, 14 against 399 us at M = 901).  e are the weights
    1 - 2n in ``perm`` order, so e_c = e[0].  Every field is real and shaped
    by the arrow's M and the root count k (D2's rows), else refused; ``perm``
    and ``nearest`` are integers.  The arrow is kept, so every current is
    taken with the arrow the realization was solved from.
    """

    arrow: Arrow
    D2: np.ndarray
    s: np.ndarray
    perm: np.ndarray
    zhat: np.ndarray
    signed: np.ndarray
    nearest: np.ndarray
    F: np.ndarray
    dF: np.ndarray
    norm_u: np.ndarray
    norm_v: np.ndarray
    flip: np.ndarray
    e: np.ndarray

    def __post_init__(self):
        M = self.arrow.modes
        k = self.D2.shape[0] if self.D2.ndim == 2 and 1 <= self.D2.shape[0] <= M else 0
        for field in fields(self)[1:]:  # D2 first: it gives k
            name, arr = field.name, getattr(self, field.name)
            per_mode = name in ("s", "perm", "signed", "flip", "e")
            shape = (k, k) if name == "D2" else (M,) if per_mode else (k,)
            index = name in ("perm", "nearest")
            if arr.shape != shape or arr.dtype.kind not in ("iu" if index else "f") or not k:
                raise ValueError(
                    f"{name} must be {'an integer' if index else 'a real'} array of shape "
                    f"{shape} for M = {M} modes and k = {k} roots (1 <= k <= M), "
                    f"got {arr.dtype} {arr.shape}"
                )
            arr.setflags(write=False)

    @property
    def roots(self) -> int:
        """k, the secular roots: the modes that couple to the centre, the centre included."""
        return len(self.zhat)

    @property
    def sign(self) -> np.ndarray:
        """The sign of each pole's level, +1 for 0: a deflated mode's entry of Q^T."""
        return np.where(self.signed < 0, -1.0, 1.0)

    def cauchy(self, i0: int, i1: int) -> np.ndarray:
        """Rows i0..i1 of V = zhat / D2: root i's singular vectors over the poles, unscaled."""
        return np.divide(self.zhat, self.D2[i0:i1])

    def lowner(self, l0: int, l1: int) -> np.ndarray:
        """Rows l0..l1 of L: (F_i - F_l) / (s_i^2 - s_l^2), F'_l on the diagonal.

        See ``_lowner_rows``, of which this is the stack of one.
        """
        L = np.empty((1, l1 - l0, len(self.zhat)))
        return _lowner_rows(self.D2[None], self.nearest[None], self.F[None], self.dF[None],
                            l0, l1, L, np.empty_like(L))[0]

    def state_scales(self):
        """(alpha, beta, r): X_il = beta_i (L_li + r_l) alpha_l over the roots."""
        k = len(self.zhat)
        r = np.full(k, self.e[0]) if self.arrow.rwa else -self.e[0] * (self.zhat[0] / self.D2[:, 0])
        return self.flip[:k] / self.norm_v, 1 / self.norm_u, r

    def project(self, w: np.ndarray):
        """Q^T w and P^T w in the solver's order, for the vector w (M) in mode order.

        One pass over the Cauchy rows, against w in ``perm`` order: on the
        roots Q^T w = (V (signed w) - w_c) / |u| and P^T w = V w / |v| (flip
        Q^T w under the RWA); a deflated mode gives sign_j w_j and flip_j w_j.
        """
        k = len(self.zhat)
        wp = w[self.perm]
        rhs = np.stack([wp[:k] * self.signed[:k], wp[:k]], axis=1)
        out = np.concatenate([self.cauchy(i0, i1) @ rhs for i0, i1 in _row_blocks(k)])
        q = wp * self.sign
        q[:k] = (out[:, 0] - wp[0]) / self.norm_u
        p = (q if self.arrow.rwa else wp) * self.flip
        if not self.arrow.rwa:
            p[:k] = out[:, 1] / self.norm_v
        return q, p

    def centre_rows(self):
        """Q[c, :] and P[c, :] over the roots, O(k): ``project`` of e_c, bit for bit.

        The centre is pole 0, at level 0, so Q^T e_c = -1 / |u| and
        P^T e_c = V[:, 0] / |v| (flip Q^T e_c under the RWA).
        """
        q = -1 / self.norm_u
        if self.arrow.rwa:
            return q, q * self.flip[: len(q)]
        return q, self.zhat[0] / self.D2[:, 0] / self.norm_v


@functools.lru_cache(maxsize=16)
def _probe_vector(modes: int) -> np.ndarray:
    """The fixed pseudo-random probe vector v of ``_probe_residuals``, read-only."""
    v = np.random.default_rng(0x5EED).standard_normal(modes)
    v.setflags(write=False)
    return v


# A root's iteration cap: from the midpoint of its interval a valve's root
# takes three steps, rarely more than seven, and none of 2592 valve arrows
# (N up to 1200, gamma up to 2) took more than 13; LAPACK dlasd4 allows 400
SECULAR_MAX_ITER = 30
# elements in a block of rows (rows x k) of a stack's arrows: the solver,
# its Löwner and vector passes and the probe work a block at a time, so
# that the block-sized arrays beside D2 stay in cache and add little to the
# peak.  A stack holds at most max(1, _BLOCK // k^2) arrows, so that one
# block holds every row of every arrow of a stack of two or more
_BLOCK = 1 << 16


def _row_blocks(k: int):
    """(i0, i1) blocks of rows of a k-wide array, _BLOCK elements each."""
    rows = max(1, _BLOCK // k)
    return [(i0, min(i0 + rows, k)) for i0 in range(0, k, rows)]


def _secular_rows(k: int) -> int:
    """Rows of a block of the secular solver's evaluations: at least 64, for the last few roots."""
    return max(64, _BLOCK // k)


def _workspace(arrows: int, k: int) -> np.ndarray:
    """A buffer of a block of rows of every arrow of a stack of ``arrows`` arrows of k roots.

    Every block temporary of the solver and the probe is written into it
    (``out=``), so a stack allocates its block arrays once.  Its rows are
    even, at least two: the probe's Löwner rows and their numerators
    take half each.
    """
    rows = min(k, _secular_rows(k))
    return np.empty(arrows * max(2, rows + rows % 2) * k)


def _block(buf: np.ndarray, *shape: int) -> np.ndarray:
    """The leading elements of a workspace buffer, shaped."""
    return buf[: math.prod(shape)].reshape(shape)


def _lowner_rows(D2, nearest, F, dF, l0, l1, L, spare):
    """Rows l0..l1 of each stacked arrow's Löwner matrix L, written into L (B, l1 - l0, k).

    (F_i - F_l) / (s_i^2 - s_l^2), F'_l on the diagonal: s_i^2 - s_l^2 is
    D2_lj - D2_ij at the pole j nearest root i, which keeps close roots
    accurate; on the diagonal it is exactly 0, held at 1 through the
    division.  ``spare``, a buffer as large as L, takes F_i - F_l.
    """
    B, k = nearest.shape
    for b in range(B):
        np.take(D2[b, l0:l1], nearest[b], axis=1, out=L[b], mode="clip")
    L -= D2[np.arange(B)[:, None], np.arange(k), nearest][:, None, :]
    diag = L.reshape(B, -1)[:, l0 :: k + 1]
    diag[...] = 1.0
    num = _block(spare, *L.shape)
    np.divide(np.subtract(F[:, None, :], F[:, l0:l1, None], out=num), L, out=L)
    diag[...] = dF[:, l0:l1]
    return L


def _probe_residuals(stack, parts, weights, projected, work) -> np.ndarray:
    """Relative residuals of K = P diag(s) Q^T, P^T P = Q^T Q = 1 and X on one probe, per arrow.

    ``stack`` are the arrows (``_BrokenArrow``) that ``_broken_arrow_svd``
    solved into the stacked ``parts``, for the weights (B x M).  The fixed
    pseudo-random vector v = ``_probe_vector(M)`` makes the checks passes
    over blocks of rows of every arrow at once, the same Cauchy and Löwner
    rows the currents read: Q^T v and P^T v, from the solver's V [signed v, v]
    (``projected``); X v; then Q (Q^T v), P (P^T v), P (s * Q^T v), Q X v and
    P v.  K v itself is O(M) from the arrow, and the state is checked as
    Q X v = e * P v for the weights e, which is X v = Q^T (e * P v) for an
    orthogonal Q.  Returns (recon, ortho, state), one row per arrow.
    """
    B, M = weights.shape
    rwa = stack[0].arrow.rwa
    D2, zhat, s, perm, signed, flip, e, norm_u, norm_v = (
        parts[n] for n in ("D2", "zhat", "s", "perm", "signed", "flip", "e", "norm_u", "norm_v"))
    k = zhat.shape[1]
    blocks = _row_blocks(k)
    v = _probe_vector(M)
    norm = np.linalg.norm(v)
    levels, column = (np.stack([getattr(b.arrow, n) for b in stack]) for n in ("levels", "column"))
    centre = np.array([b.arrow.center for b in stack])
    Kv = levels * v + column * v[centre][:, None]
    if rwa:
        Kv[np.arange(B), centre] += np.matmul(column[:, None, :], v[:, None])[:, 0, 0]
    sign = np.where(signed < 0, -1.0, 1.0)
    # Q^T v and P^T v in the solver's order
    vp = v[perm]
    qv = vp * sign
    qv[:, :k] = (projected[..., 0] - vp[:, :1]) / norm_u
    pv = (qv if rwa else vp) * flip
    if not rwa:
        pv[:, :k] = projected[..., 1] / norm_v
    # X v, for v in the solver's order: X_il = beta_i (L_li + r_l) alpha_l on the
    # roots, Löwner rows and their numerators each half a block of the workspace
    r = np.repeat(e[:, :1], k, axis=1) if rwa else -e[:, :1] * (zhat[:, :1] / D2[:, :, 0])
    av = flip[:, :k] / norm_v * v[:k]
    acc = 0
    half = max(1, -(-min(k, _BLOCK // k) // 2))
    for l0 in range(0, k, half):
        l1 = min(l0 + half, k)
        size = B * (l1 - l0) * k
        L = _lowner_rows(D2, parts["nearest"], parts["F"], parts["dF"], l0, l1,
                         _block(work, B, l1 - l0, k), work[size : 2 * size])
        acc = acc + (av[:, None, l0:l1] @ L)[:, 0]
    xv = e * sign * flip * v
    xv[:, :k] = (acc + np.matmul(r[:, None, :], av[:, :, None])[:, :, 0]) * (1 / norm_u)
    # Q x and P y back in mode order, for the columns x = [Q^T v, X v] and
    # y = [P^T v, s Q^T v, v]: one pass over the Cauchy rows; under the RWA P y = Q (flip y)
    x = np.stack([qv, xv], axis=2)
    y = np.stack([pv, s * qv, np.broadcast_to(v, (B, M))], axis=2) * flip[:, :, None]
    out = np.concatenate([x * sign[:, :, None], y], axis=2)
    lhs = np.concatenate([x[:, :k] / norm_u[:, :, None],
                          y[:, :k] / (norm_u if rwa else norm_v)[:, :, None]], axis=2)
    acc = 0
    for i0, i1 in blocks:
        V = np.divide(zhat[:, None, :], D2[:, i0:i1], out=_block(work, B, i1 - i0, k))
        acc = acc + V.transpose(0, 2, 1) @ lhs[:, i0:i1]
    out[:, :k] = acc
    q = slice(None) if rwa else slice(0, 2)  # the columns expanded through Q
    out[:, :k, q] *= signed[:, :k, None]
    out[:, 0, q] = -lhs[:, :, q].sum(axis=1)
    modes = np.empty_like(out)
    modes[np.arange(B)[:, None], perm] = out
    scale = np.maximum(s.max(axis=1, initial=0.0), 1.0) * norm
    recon = np.linalg.norm(Kv - modes[..., 3], axis=1) / scale
    ortho = np.maximum(np.linalg.norm(modes[..., 0] - v, axis=1),
                       np.linalg.norm(modes[..., 2] - v, axis=1)) / norm
    state = np.linalg.norm(modes[..., 1] - weights * modes[..., 4], axis=1) / norm
    return np.stack([recon, ortho, state], axis=1)


def _secular_eval(S, u, i0, i1, split):
    """F, 1 + sum_j |u_j^2 / D_j| and F' for rows i0..i1 of D = S, which becomes u / D.

    S (G x n x k) holds n rows of each of G arrows, u (G x k) their
    weights.  Every pole j < i0 lies left of each of these roots (D < 0)
    and every pole j >= i1 right of it (D > 0), so only the diagonal block
    needs |.|, taken in place once F has been.  Given ``split`` (each row's
    last pole left of its root), also the part of F' from the poles left of
    the root.  Every product is one arrow's matrix-vector product (the
    same BLAS call, stacked or not) and every row sum a row's own, so each
    row comes out as its arrow alone gives it.
    """
    k = S.shape[2]
    rows = S.reshape(-1, k)
    if len(S) == 1:  # one arrow: 2-D matmuls, which numpy dispatches faster than stacked ones
        S, u = rows, u[0]
    np.divide(u[..., None, :], S, out=S)
    block = S[..., i0:i1]
    f = 1.0 + (block @ u[..., i0:i1, None])[..., 0]
    left = (S[..., :i0] @ u[..., :i0, None])[..., 0] if i0 else None
    right = (S[..., i1:] @ u[..., i1:, None])[..., 0] if i1 < k else None
    size = 1.0 + (np.abs(block, out=block) @ u[..., i0:i1, None])[..., 0]
    if i0:
        f += left
        size -= left
    if i1 < k:
        f += right
        size += right
    fp = np.einsum("ij,ij->i", rows, rows)
    if split is None:
        return f.ravel(), size.ravel(), fp, fp
    mask = np.arange(i0, i1) <= split[:, None]
    block = rows[:, i0:i1]
    left = np.einsum("ij,ij->i", rows[:, :i0], rows[:, :i0])
    left += np.einsum("ij,ij,ij->i", block, block, mask)
    return f.ravel(), size.ravel(), fp, left


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
    ``done`` takes only the Newton step, if inside.  Every column is a root
    of its own: what one takes does not depend on the others.
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


def _secular_roots(ds, zn, rho, work):
    """The k roots s_i of 1 + rho sum_j zn_j^2 / (ds_j^2 - s^2), and D2_ij = ds_j^2 - s_i^2.

    A stack of B problems: ds and zn are B x k, rho has B entries, and the
    results are B x k and B x k x k.  ds ascending and distinct, zn of unit
    norm and nonzero, rho > 0: root i lies in (ds_i, ds_{i+1}), the last in
    (ds_{k-1}^2, ds_{k-1}^2 + rho) as s^2.  The method is LAPACK
    ``dlasd4``'s (R.-C. Li, LAPACK Working Note 89, 1993; Gu & Eisenstat,
    SIAM J. Matrix Anal. Appl. 16, 1995), vectorized over the roots of
    every arrow: every root steps at once, and F, F' and sum |terms| of the
    roots still moving are matrix-vector products over blocks of rows of
    D2, written into ``work`` (``_workspace``).  F at the midpoint of each
    interval picks the nearer pole d_o as the origin (the last root's is
    ds_{k-1}); the unknown is eta = s^2 - d_o^2, the poles are
    q_j = (ds_j - d_o)(ds_j + d_o), so every D2_ij = q_j - eta is accurate
    to a few ulps and no difference of squares is formed.  The midpoint's F
    and F' give the first step; each step solves a two-pole rational model
    (``_secular_step``) inside the root's bracket.  A root stops on
    dlasd4's test, |F| <= 8 eps (1 + sum_j |rho zn_j^2 / D_j| + |eta| F'),
    and then takes the Newton step that evaluation gives.  A root still
    moving after SECULAR_MAX_ITER steps raises LinAlgError naming it.
    k = 1 is the closed form s^2 = ds_0^2 + rho zn_0^2.

    Each arrow's blocks of rows depend on k alone, and its rows still
    moving are evaluated together, as a matrix of those rows alone, so
    every arrow's roots and D2 are the bits it gets in a stack of one.
    """
    B, k = ds.shape
    u = np.sqrt(rho)[:, None] * np.abs(zn)
    w = u * u
    D2 = np.empty((B, k, k))
    if k == 1:
        D2[:, 0, 0] = -w[:, 0]
        return ds + w / (ds + np.sqrt(ds * ds + w)), D2
    delsq = (ds[:, 1:] - ds[:, :-1]) * (ds[:, 1:] + ds[:, :-1])
    half = np.concatenate([delsq, rho[:, None]], axis=1) / 2
    step = _secular_rows(k)
    starts = list(range(0, k, step)) + [k]
    blocks = list(zip(starts[:-1], starts[1:]))
    # each arrow's first root of each block, in the stack's flat order b k + i
    bounds = (np.arange(B)[:, None] * k + starts).ravel()
    flat = D2.reshape(B * k, k)

    def evaluate(act, offset, middle=None):
        """F, 1 + sum |terms|, F' and its left part (``middle`` rows) of the roots ``act``.

        ``act`` holds b k + i for root i of arrow b, ascending.  In each
        block the arrows with as many rows still moving are evaluated at once.
        """
        ends = np.searchsorted(act, bounds).reshape(B, -1).tolist()
        out = np.empty((4, len(act)))
        for j, (i0, i1) in enumerate(blocks):
            groups = {}
            for b, e in enumerate(ends):
                if e[j + 1] > e[j]:
                    groups.setdefault(e[j + 1] - e[j], []).append(b)
            for n, g in groups.items():
                every = len(g) == B
                # the group's rows in act: one arrow's are consecutive
                if len(g) == 1:
                    pos = slice(ends[g[0]][j], ends[g[0]][j] + n)
                elif every and len(blocks) == 1:
                    pos = slice(None)
                else:
                    pos = (np.array([ends[b][j] for b in g])[:, None] + np.arange(n)).ravel()
                rows = act[pos]
                S = _block(work, len(g), n, k)
                if every and n == i1 - i0:
                    np.subtract(D2[:, i0:i1], offset[pos].reshape(B, n, 1), out=S)
                else:
                    np.take(flat, rows, axis=0, out=S.reshape(-1, k), mode="clip")
                    S -= offset[pos].reshape(-1, n, 1)
                split = None
                if middle is not None and middle[pos].any():
                    split = np.minimum(rows % k, k - 2)
                for dst, src in zip(out, _secular_eval(S, u if every else u[g], i0, i1, split)):
                    dst[pos] = src
        return out

    # the origin guessed from the terms of F at the midpoint of poles i,
    # i + 1 and 0 (the centre's, the heaviest in a valve's arrow); a wrong
    # guess costs one more pass over that root's row
    i, each = np.arange(k), np.arange(B)[:, None]
    guess = np.zeros((B, k), bool)
    centre = w[:, :1] / ((ds[:, 1:-1] - ds[:, :1]) * (ds[:, 1:-1] + ds[:, :1]) + half[:, 1:-1])
    guess[:, :-1] = (1 + (w[:, 1:] - w[:, :-1]) / half[:, :-1]
                     - np.concatenate([np.zeros((B, 1)), centre], axis=1) < 0)
    act = np.arange(B * k)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # D2 rows = q_j = (ds_j - d_o)(ds_j + d_o) for the origin d_o, and F
        # at the midpoint
        origin = i + guess
        for i0, i1 in blocks:
            o = ds[each, origin[:, i0:i1], None]
            q = np.subtract(ds[:, None, :], o, out=D2[:, i0:i1])
            q *= np.add(ds[:, None, :], o, out=_block(work, *q.shape))
        f, size, fp, left = evaluate(act, np.where(guess, -half, half).ravel())
        # F < 0 at the midpoint: the root lies nearer ds_{i+1}
        right = (f < 0).reshape(B, k)
        right[:, -1] = False
        origin = i + right
        wrong = np.flatnonzero(right != guess)
        arrow = wrong // k
        o = ds[arrow, origin.ravel()[wrong]][:, None]
        flat[wrong] = (ds[arrow] - o) * (ds[arrow] + o)
        # per root: eta, its bracket; the q of the interval's other end, of
        # the pole across the origin (+-inf if none) and of pole 0, and the
        # square roots of their weights (0 for none); the origin's weight, the
        # last F, whether it takes the middle way and whether its origin is
        # the interval's left end.  Both of the last root's near poles lie
        # left of it
        sign = 1.0 - 2 * right
        inner = right[:, :-1]
        state = np.empty((13, B, k))
        state[0] = half * sign
        state[1] = np.minimum(state[0], 0.0)
        state[2] = np.maximum(state[0], 0.0)
        state[3, :, :-1] = delsq * sign[:, :-1]
        inf = np.full((B, 1), np.inf)
        across = np.concatenate([inf, delsq, inf], axis=1)[each, i[:-1] + 2 * inner]
        state[4, :, :-1] = -sign[:, :-1] * across
        do = ds[each, origin]
        state[5] = (ds[:, :1] - do) * (ds[:, :1] + do)
        state[6, :, :-1] = u[each, i[:-1] + 1 - inner]
        none = np.zeros((B, 1))
        state[7, :, :-1] = np.concatenate([none, u, none], axis=1)[each, i[:-1] + 3 * inner]
        state[8] = np.where(origin > 1, u[:, :1], 0.0)
        state[9] = w[each, origin]
        state[10] = np.nan
        state[11] = 0.0
        state[12] = ~right
        # the last root lies in (0, rho]: F(rho) >= 0, and = 0 when every other
        # pole is at the origin; its bracket is open, so a hair above rho
        below = f.reshape(B, k)[:, -1] >= 0
        top = half[:, -1]
        state[0, :, -1] = top
        state[1, :, -1] = np.where(below, 0.0, top)
        state[2, :, -1] = np.where(below, top, rho * (1 + 4 * np.finfo(float).eps))
        state[3, :, -1] = -delsq[:, -1]
        state[4, :, -1] = np.inf
        state[6, :, -1] = u[:, -2]
        state[7, :, -1] = 0.0
        state[12, :, -1] = 0.0
        state = state.reshape(13, B * k)
        eta = np.empty(B * k)
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
                b, root = divmod(int(act[0]), k)
                where = f" (arrow {b} of a stack of {B})" if B > 1 else ""
                raise np.linalg.LinAlgError(
                    f"secular root {root} of a {k}-root arrow{where} did not "
                    f"converge in {SECULAR_MAX_ITER} steps"
                )
            f, size, fp, left = evaluate(act, state[0], state[11])
        flat -= eta[:, None]
    do = ds[each, origin]
    eta = eta.reshape(B, k)
    return do + eta / (do + np.sqrt(do * do + eta)), D2


@dataclass(frozen=True)
class _BrokenArrow:
    """An arrow as the secular solver takes it: K 2^-p as a broken arrow, its poles sorted.

    ``perm`` sorts the modes: the centre, the k - 1 coupled modes by |d|,
    then the deflated ones; ds = |d|, zs, and the signs of d are in that
    order, and rho = |zs[:k]|^2.  ``mu`` is the RWA's shift (0 with
    pairing).  See ``_broken_arrow_svd``.
    """

    arrow: Arrow
    p: int
    mu: float
    perm: np.ndarray
    ds: np.ndarray
    zs: np.ndarray
    sign: np.ndarray
    k: int
    rho: float


def _broken_arrow(arrow: Arrow) -> _BrokenArrow:
    """The broken arrow of ``arrow`` (``_broken_arrow_svd``): scaled, deflated and sorted."""
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
    mu = 0.0
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
    gap = tol / 8
    if np.any(np.diff(ds[:k]) < gap):
        for j in range(1, k):
            ds[j] = max(ds[j], ds[j - 1] + gap)
    return _BrokenArrow(arrow=arrow, p=int(p), mu=float(mu), perm=perm, ds=ds, zs=zs,
                        sign=np.where(d[perm] < 0, -1.0, 1.0), k=k, rho=float(zs[:k] @ zs[:k]))


def _broken_arrow_svd(stack, weights: np.ndarray, probe: np.ndarray, work: np.ndarray):
    """SVD K = P diag(s) Q^T of each arrow of a stack, and X = Q^T diag(e) P, as D2 and vectors.

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
    accurate; deflated modes give the diagonal e_j sign d_j.  Nothing of
    P, Q or X is written down: two passes over blocks of rows of D2 (the
    Löwner product for zhat; F, F', |u|, |v| and the probe's first product)
    give the O(M) vectors from which ``ArrowPropagator`` makes their rows,
    so D2 (k x k, in the sorted-pole order the solver leaves it) is the one
    2-D array.

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
    coupling whose square |g|^2 overflows is refused with a ValueError
    (``_broken_arrow``).

    ``stack`` holds B broken arrows (``_broken_arrow``) of one kind, M and
    root count k, ``weights`` their e (B x M, mode order).  Every pass runs
    over the whole stack, its block arrays in ``work`` (``_workspace``), and
    each arrow's products are its own matrix products, so every arrow's
    results are the bits it gets in a stack of one.  Returns the
    ``ArrowPropagator`` fields but the arrow, by name, each stacked (B x ...),
    and V [signed v, v] (B x k x 2) for the vector ``probe`` (v, in mode
    order), taken in the pass that gives F: the first pass of
    ``_probe_residuals``.  The singular values (and the columns of P and Q,
    the rows and columns of X) come in the solver's order: the k roots
    ascending, then the deflated modes.  Raises LinAlgError if a secular
    root does not converge.
    """
    B, k, rwa = len(stack), stack[0].k, stack[0].arrow.rwa
    ds, zs, sign, perm = (np.stack([getattr(a, name) for a in stack])
                          for name in ("ds", "zs", "sign", "perm"))
    rho = np.array([a.rho for a in stack])
    # D2[b, i, j] = ds_j^2 - s_i^2, roots ascending; a row is a root, a column
    # a coupled mode (a pole) in the sorted order.  The deflated modes have none
    sig, D2 = _secular_roots(ds[:, :k], zs[:, :k] / np.sqrt(rho)[:, None], rho, work)
    # by interlacing root i lies between poles i and i + 1; the nearer, and
    # s_i^2 minus its square
    i = np.arange(k)
    nearest = np.tile(i, (B, 1))
    nearest[:, :-1] += np.abs(D2[:, i[:-1], i[:-1] + 1]) < np.abs(D2[:, i[:-1], i[:-1]])
    blocks = _row_blocks(k)

    # Löwner: z_j^2 = prod_i (ds_j^2 - s_i^2) / prod_{m != j} (ds_j^2 - ds_m^2),
    # root i < k - 1 over pole m = i for i < j and m = i + 1 for i >= j, so
    # that by interlacing every ratio lies in (0, 1); root k - 1 left over.
    # ds_j^2 - ds_m^2 is D2_ij - D2_im, two terms of opposite sign
    prod = np.ones((B, k))
    for i0, i1 in blocks:
        n = min(i1, k - 1) - i0
        if n <= 0:
            continue
        D = D2[:, i0 : i0 + n]
        r = np.arange(i0, i0 + n)
        den = _block(work, B, n, k)
        below, above = D2[:, r, r + 1][:, :, None], D2[:, r, r][:, :, None]
        np.subtract(D[:, :, :i0], below, out=den[:, :, :i0])
        np.subtract(D[:, :, i0:], above, out=den[:, :, i0:])
        np.subtract(D[:, :, i0 : i0 + n], below, out=den[:, :, i0 : i0 + n], where=r[:, None] >= r)
        np.divide(D, den, out=den)
        den[:, 0] *= prod
        prod = den.prod(axis=1)
    zhat = np.copysign(np.sqrt(np.abs(prod * D2[:, k - 1])), zs[:, :k])

    # from here on an entry is a singular value: the k roots, then the
    # deflated modes
    s = np.concatenate([sig, ds[:, k:]], axis=1)
    flip = np.ones_like(s)
    if rwa:
        root_mu = np.sqrt([[a.mu] for a in stack])
        lam = (s - root_mu) * (s + root_mu)
        s = np.abs(lam)
        flip[lam < 0] = -1.0
    e, signed = weights[np.arange(B)[:, None], perm], sign * ds
    # the Löwner weights e d, or e |d|^2 under the RWA (sign = 1 there), and
    # the sums over the rows of V = zhat / D2: F, F' and |v|^2, and
    # |u|^2 = 1 + sum_j V_ij^2 ds_j^2; and V [signed v, v] for the probe
    weighted = (e * signed * ds if rwa else e * signed)[:, :k]
    wz = (weighted * zhat)[:, :, None]
    sums = np.stack([weighted, np.ones((B, k)), ds[:, :k] * ds[:, :k]], axis=2)
    vp = probe[perm[:, :k]]
    rhs = np.stack([signed[:, :k] * vp, vp], axis=2)
    F, dF, vv, uu = np.empty((4, B, k))
    projected = np.empty((B, k, 2))
    for i0, i1 in blocks:
        V = np.divide(zhat[:, None, :], D2[:, i0:i1], out=_block(work, B, i1 - i0, k))
        F[:, i0:i1] = (V @ wz)[..., 0]
        projected[:, i0:i1] = V @ rhs
        V *= V
        dF[:, i0:i1], vv[:, i0:i1], uu[:, i0:i1] = np.moveaxis(V @ sums, 2, 0)
    norm_u = np.sqrt(1 + uu)
    p = np.array([[a.p] for a in stack])
    parts = dict(s=np.ldexp(s, p), D2=D2, perm=perm, zhat=zhat, signed=signed, nearest=nearest,
                 F=F, dF=dF, norm_u=norm_u, norm_v=norm_u if rwa else np.sqrt(vv), flip=flip, e=e)
    return parts, projected


def _solve_stack(stack, weights: np.ndarray) -> list[ArrowPropagator]:
    """The probed ``ArrowPropagator`` of every broken arrow of a stack, for its weights (B x M)."""
    work = _workspace(len(stack), stack[0].k)
    parts, projected = _broken_arrow_svd(stack, weights, _probe_vector(weights.shape[1]), work)
    props = [ArrowPropagator(a.arrow, **{name: part[b] for name, part in parts.items()})
             for b, a in enumerate(stack)]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # a corrupted solve shows as an inf or NaN residual, not a warning
        residuals = _probe_residuals(stack, parts, weights, projected, work)
    for b, (recon, ortho, state) in enumerate(residuals):
        if not all(r <= SPECTRAL_TOL for r in (recon, ortho, state)):
            where = f" (arrow {b} of a stack of {len(stack)})" if len(stack) > 1 else ""
            raise ValueError(
                f"arrow SVD failed its probe{where}: reconstruction residual {recon:.3e}, "
                f"orthogonality residual {ortho:.3e}, rotated-state residual {state:.3e}"
            )
    return props


def arrow_propagators(realizations: Iterable) -> Iterator[ArrowPropagator]:
    """``arrow_propagator`` of each (arrow, occupations), in order, solved as stacks.

    Consecutive arrows of one kind, one M and one root count k (the modes
    that couple to the centre, after deflation) form a stack of at most
    max(1, _BLOCK // k^2) arrows, which ``_broken_arrow_svd`` and the probe
    solve in one pass: one secular iteration over every root of every
    arrow, one probe and one workspace per stack.  Every propagator is the
    bits its arrow gets alone.  A stack is solved when it is full or the
    next arrow does not join it, so the propagators of one stack at a time
    are held, and at k^2 > _BLOCK / 2 (M >= 182 for a valve) one arrow's.
    """
    stack, weights = [], []
    for arrow, occupations in realizations:
        occupations = np.asarray(occupations, dtype=float)
        if occupations.shape != (arrow.modes,):
            raise ValueError(
                f"occupations must have shape ({arrow.modes},), got {occupations.shape}"
            )
        item = _broken_arrow(arrow)
        if stack and (item.k, arrow.modes, arrow.rwa) != (stack[0].k, stack[0].arrow.modes,
                                                          stack[0].arrow.rwa):
            yield from _solve_stack(stack, np.array(weights))
            stack, weights = [], []
        stack.append(item)
        weights.append(1 - 2 * occupations)
        if len(stack) >= _BLOCK // item.k**2:
            yield from _solve_stack(stack, np.array(weights))
            stack, weights = [], []
    if stack:
        yield from _solve_stack(stack, np.array(weights))


def arrow_propagator(arrow: Arrow, occupations) -> ArrowPropagator:
    """An arrow's realization in the product state with mode occupations n.

    ``_broken_arrow_svd`` solves every arrow, with pairing or under the RWA,
    coincident and zero levels included, for the weights e = 1 - 2n, in
    O(M^2) and with D2 as its one M x M array; s is in its order, not
    sorted.  Every result is probed: K v = P diag(s) Q^T v, P^T P v = v,
    Q^T Q v = v and Q X v = e * P v for one fixed vector v, each to
    SPECTRAL_TOL, or ValueError (a NaN or infinite residual included).
    It is the stack of one of ``arrow_propagators``.
    """
    (prop,) = arrow_propagators([(arrow, occupations)])
    return prop
