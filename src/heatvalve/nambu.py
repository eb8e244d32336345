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
"""

from __future__ import annotations

import functools
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
    solver scaled it (K 2^-p); s is K's own.  What is O(k) to rebuild from
    them (the nearest pole's D2_ij, V[:, 0]) is not stored.  e are the
    weights 1 - 2n in ``perm`` order, so e_c = e[0].  Every field is real
    and shaped by the arrow's M and the root count k (D2's rows), else
    refused; ``perm`` and ``nearest`` are integers.  The arrow is kept, so
    every current is taken with the arrow the realization was solved from.
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

        s_i^2 - s_l^2 is D2_lj - D2_ij at the pole j nearest root i, which
        keeps close roots accurate; on the diagonal it is exactly 0, held
        at 1 through the division.
        """
        k = len(self.zhat)
        L = np.take(self.D2[l0:l1], self.nearest, axis=1)
        L -= self.D2[np.arange(k), self.nearest]
        diag = L.reshape(-1)[l0 :: k + 1]
        diag[...] = 1.0
        np.divide(np.subtract(self.F, self.F[l0:l1, None]), L, out=L)
        diag[...] = self.dF[l0:l1]
        return L

    def state_scales(self):
        """(alpha, beta, r): X_il = beta_i (L_li + r_l) alpha_l over the roots."""
        k = len(self.zhat)
        r = np.full(k, self.e[0]) if self.arrow.rwa else -self.e[0] * (self.zhat[0] / self.D2[:, 0])
        return self.flip[:k] / self.norm_v, 1 / self.norm_u, r

    def project(self, w: np.ndarray, out: np.ndarray | None = None):
        """Q^T w and P^T w in the solver's order, for the columns of w (M x n) in mode order.

        One pass over the Cauchy rows, against w in ``perm`` order: on the
        roots Q^T w = (V (signed w) - w_c) / |u| and P^T w = V w / |v| (flip
        Q^T w under the RWA); a deflated mode gives sign_j w_j and flip_j w_j.
        ``out``, the pass's V [signed w, w] (k x 2n) if already made, saves it.
        """
        k, n = len(self.zhat), w.shape[1]
        wp = w[self.perm]
        if out is None:
            rhs = np.concatenate([wp[:k] * self.signed[:k, None], wp[:k]], axis=1)
            out = np.concatenate([self.cauchy(i0, i1) @ rhs for i0, i1 in _row_blocks(k)])
        q = wp * self.sign[:, None]
        q[:k] = (out[:, :n] - wp[0]) / self.norm_u[:, None]
        p = (q if self.arrow.rwa else wp) * self.flip[:, None]
        if not self.arrow.rwa:
            p[:k] = out[:, n:] / self.norm_v[:, None]
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

    def expand(self, x: np.ndarray, y: np.ndarray):
        """Q x and P y in mode order, for the columns of x and y (M x n) in the solver's order.

        One pass over the Cauchy rows, the transpose of ``project``; under
        the RWA P y = Q (flip y).
        """
        k, n, rwa = len(self.zhat), x.shape[1], self.arrow.rwa
        y = y * self.flip[:, None]
        out = np.concatenate([x * self.sign[:, None], y], axis=1)
        lhs = np.concatenate([x[:k] / self.norm_u[:, None],
                              y[:k] / (self.norm_u if rwa else self.norm_v)[:, None]], axis=1)
        out[:k] = sum(self.cauchy(i0, i1).T @ lhs[i0:i1] for i0, i1 in _row_blocks(k))
        q = slice(None) if rwa else slice(0, n)  # the columns expanded through Q
        out[:k, q] *= self.signed[:k, None]
        out[0, q] = -lhs[:, q].sum(axis=0)
        modes = np.empty_like(out)
        modes[self.perm] = out
        return modes[:, :n], modes[:, n:]

    def state(self, v: np.ndarray) -> np.ndarray:
        """X v for v in the solver's order: one pass over the Löwner rows."""
        k = len(self.zhat)
        alpha, beta, r = self.state_scales()
        av = alpha * v[:k]
        acc = sum(av[l0:l1] @ self.lowner(l0, l1) for l0, l1 in _row_blocks(k))
        out = self.e * self.sign * self.flip * v
        out[:k] = (acc + r @ av) * beta
        return out


@functools.lru_cache(maxsize=16)
def _probe_vector(modes: int) -> np.ndarray:
    """The fixed pseudo-random probe vector v of ``_probe_residuals``, read-only."""
    v = np.random.default_rng(0x5EED).standard_normal(modes)
    v.setflags(write=False)
    return v


def _probe_residuals(prop: ArrowPropagator, weights, projected=None) -> tuple[float, float, float]:
    """Relative residuals of K = P diag(s) Q^T, P^T P = Q^T Q = 1 and X on one probe.

    The fixed pseudo-random vector v = ``_probe_vector(M)`` makes the checks
    three passes over blocks of rows, the same Cauchy and Löwner rows the
    currents read: Q^T v and P^T v (``projected``, the solver's V [signed v, v]
    in its order, saves this one); X v; then Q (Q^T v), P (P^T v),
    P (s * Q^T v), Q X v and P v.  K v itself is O(M) from the arrow, and
    the state is checked as Q X v = e * P v for the weights e, which is
    X v = Q^T (e * P v) for an orthogonal Q.
    """
    arrow, s = prop.arrow, prop.s
    v = _probe_vector(arrow.modes)
    norm = np.linalg.norm(v)
    c = arrow.center
    Kv = arrow.levels * v + arrow.column * v[c]
    if arrow.rwa:
        Kv[c] += arrow.couplings @ v
    Qtv, Ptv = prop.project(v[:, None], projected)
    Qx, Py = prop.expand(np.concatenate([Qtv, prop.state(v)[:, None]], axis=1),
                         np.concatenate([Ptv, s[:, None] * Qtv, v[:, None]], axis=1))
    scale = max(s.max(initial=0.0), 1.0) * norm
    recon = np.linalg.norm(Kv - Py[:, 1]) / scale
    ortho = max(np.linalg.norm(Qx[:, 0] - v), np.linalg.norm(Py[:, 0] - v)) / norm
    state = np.linalg.norm(Qx[:, 1] - weights * Py[:, 2]) / norm
    return float(recon), float(ortho), float(state)


# A root's iteration cap: from the midpoint of its interval a valve's root
# takes three steps, rarely more than seven, and none of 2592 valve arrows
# (N up to 1200, gamma up to 2) took more than 13; LAPACK dlasd4 allows 400
SECULAR_MAX_ITER = 30
# elements in a block of rows (rows x k): the solver, its Löwner and vector
# passes and the probe work a block at a time, so that the few block-sized
# arrays beside D2 stay in cache and add little to the peak
_BLOCK = 1 << 16


def _row_blocks(k: int):
    """(i0, i1) blocks of rows of a k-wide array, _BLOCK elements each."""
    rows = max(1, _BLOCK // k)
    return [(i0, min(i0 + rows, k)) for i0 in range(0, k, rows)]


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


def _broken_arrow_svd(arrow: Arrow, weights: np.ndarray, probe: np.ndarray):
    """SVD K = P diag(s) Q^T of an arrow, and X = Q^T diag(e) P, as D2 and O(M) vectors.

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
    coupling whose square |g|^2 overflows is refused with a ValueError.

    Returns the ``ArrowPropagator`` fields but the arrow, by name, and
    V [signed v, v] for the vector ``probe`` (v, in mode order), taken in
    the pass that gives F: the first pass of ``_probe_residuals``.  The
    singular values (and the columns of P and Q, the rows and columns of
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
    # coupled mode (a pole) in the sorted order.  The deflated modes have none
    sig, D2 = _secular_roots(ds[:k], zs[:k] / np.sqrt(rho), rho)
    # by interlacing root i lies between poles i and i + 1; the nearer, and
    # s_i^2 minus its square
    i = np.arange(k)
    nearest = i.copy()
    nearest[:-1] += np.abs(D2[i[:-1], i[:-1] + 1]) < np.abs(D2[i[:-1], i[:-1]])
    blocks = _row_blocks(k)

    # Löwner: z_j^2 = prod_i (ds_j^2 - s_i^2) / prod_{m != j} (ds_j^2 - ds_m^2),
    # root i < k - 1 over pole m = i for i < j and m = i + 1 for i >= j, so
    # that by interlacing every ratio lies in (0, 1); root k - 1 left over.
    # ds_j^2 - ds_m^2 is D2_ij - D2_im, two terms of opposite sign
    prod = np.ones(k)
    for i0, i1 in blocks:
        n = min(i1, k - 1) - i0
        if n <= 0:
            continue
        D = D2[i0 : i0 + n]
        r = np.arange(i0, i0 + n)
        den = np.empty_like(D)
        np.subtract(D[:, :i0], D2[r, r + 1][:, None], out=den[:, :i0])
        np.subtract(D[:, i0:], D2[r, r][:, None], out=den[:, i0:])
        block = den[:, i0 : i0 + n]
        block[...] = np.where(r[:, None] >= r, D[:, i0 : i0 + n] - D2[r, r + 1][:, None], block)
        np.divide(D, den, out=den)
        den[0] *= prod
        prod = den.prod(axis=0)
    zhat = np.copysign(np.sqrt(np.abs(prod * D2[k - 1])), zs[:k])

    # from here on an entry is a singular value: the k roots, then the
    # deflated modes
    s = np.concatenate([sig, ds[k:]])
    flip = np.ones(M)
    if rwa:
        lam = (s - np.sqrt(mu)) * (s + np.sqrt(mu))
        s = np.abs(lam)
        flip[lam < 0] = -1.0
    e, signed = weights[perm], sign * ds
    # the Löwner weights e d, or e |d|^2 under the RWA (sign = 1 there), and
    # the sums over the rows of V = zhat / D2: F, F' and |v|^2, and
    # |u|^2 = 1 + sum_j V_ij^2 ds_j^2; and V [signed v, v] for the probe
    weighted = (e * signed * ds if rwa else e * signed)[:k]
    wz = weighted * zhat
    sums = np.stack([weighted, np.ones(k), ds[:k] * ds[:k]], axis=1)
    vp = probe[perm[:k]]
    rhs = np.stack([signed[:k] * vp, vp], axis=1)
    F, dF, vv, uu, projected = np.empty(k), np.empty(k), np.empty(k), np.empty(k), np.empty((k, 2))
    for i0, i1 in blocks:
        V = np.divide(zhat, D2[i0:i1])
        F[i0:i1] = V @ wz
        projected[i0:i1] = V @ rhs
        V *= V
        dF[i0:i1], vv[i0:i1], uu[i0:i1] = (V @ sums).T
    norm_u = np.sqrt(1 + uu)
    parts = dict(s=np.ldexp(s, p), D2=D2, perm=perm, zhat=zhat, signed=signed, nearest=nearest,
                 F=F, dF=dF, norm_u=norm_u, norm_v=norm_u if rwa else np.sqrt(vv), flip=flip, e=e)
    return parts, projected


def arrow_propagator(arrow: Arrow, occupations) -> ArrowPropagator:
    """An arrow's realization in the product state with mode occupations n.

    ``_broken_arrow_svd`` solves every arrow, with pairing or under the RWA,
    coincident and zero levels included, for the weights e = 1 - 2n, in
    O(M^2) and with D2 as its one M x M array; s is in its order, not
    sorted.  Every result is probed: K v = P diag(s) Q^T v, P^T P v = v,
    Q^T Q v = v and Q X v = e * P v for one fixed vector v, each to
    SPECTRAL_TOL, or ValueError (a NaN or infinite residual included).
    """
    occupations = np.asarray(occupations, dtype=float)
    if occupations.shape != (arrow.modes,):
        raise ValueError(
            f"occupations must have shape ({arrow.modes},), got {occupations.shape}"
        )
    weights = 1 - 2 * occupations
    parts, projected = _broken_arrow_svd(arrow, weights, _probe_vector(arrow.modes))
    prop = ArrowPropagator(arrow, **parts)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # a corrupted solve shows as an inf or NaN residual, not a warning
        recon, ortho, state = _probe_residuals(prop, weights, projected)
    if not all(r <= SPECTRAL_TOL for r in (recon, ortho, state)):
        raise ValueError(
            f"arrow SVD failed its probe: reconstruction residual {recon:.3e}, "
            f"orthogonality residual {ortho:.3e}, rotated-state residual {state:.3e}"
        )
    return prop
