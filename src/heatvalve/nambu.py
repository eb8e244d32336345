"""Quadratic fermionic operators coupled through one mode, in the Majorana form.

A quadratic operator sum h_ij a_i^dag a_j + (1/2) sum (Delta_ij a_i^dag a_j^dag
+ h.c.) has the Hermitian particle block h and the antisymmetric pairing
block Delta.  A real operator whose modes couple only through one central
mode (the heat valve) is carried by its ``Arrow``: the M x M matrix
K = h + Delta, a diagonal plus the central column (and row).  Its SVD
``arrow_svd`` gives the eigenbasis of the 2M x 2M Nambu matrix
[[h, Delta], [-Delta*, -h^T]] in the Majorana form, from one secular
solver with pairing and under the RWA, in O(M^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

# Construction-time structural tolerance and accumulated-floating-error
# tolerance for spectral / round-trip checks.
STRUCT_TOL = 1e-12
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


def _probe_residuals(arrow: Arrow, weights, s, P, Q, X) -> tuple[float, float, float]:
    """Relative residuals of K = P diag(s) Q^T, P^T P = Q^T Q = 1 and X on one probe.

    A fixed pseudo-random vector makes the checks O(M^2) matrix-vector work;
    K v itself is O(M) from the arrow, and X v is checked against
    Q^T (e * P v) for the weights e.
    """
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
    state = np.linalg.norm(X @ v - Q.T @ (weights * Pv)) / norm
    return float(recon), float(ortho), float(state)


def _broken_arrow_svd(arrow: Arrow, weights: np.ndarray):
    """SVD K = P diag(s) Q^T of an arrow, and X = Q^T diag(e) P, s in root order.

    With pairing, K^T = diag(d) + e_c z^T with z = K[:, c] (the central
    level at c) and d = levels but d_c = 0, and K^T = S A for S = diag(sign d)
    and the broken arrow A = diag(|d|) + e_c z^T, whose squared singular
    values are the eigenvalues of diag(|d|^2) + z z^T (Gu & Eisenstat 1995).
    LAPACK ``dlasd4`` finds each root s_i with D2_ij = (|d_j| - s_i)(|d_j| + s_i),
    to full relative accuracy.  Löwner's formula recomputes z from the roots,
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
    accurate; deflated modes give the diagonal e_j sign d_j.  O(M^2) work,
    at most four M x M arrays at once.

    Under the RWA, K + mu = L L^T for mu = max|d| + ||g|| + 1, with L^T the
    broken arrow of levels sqrt(d + mu), column g / sqrt(d + mu) and centre
    sqrt(d_c + mu - sum g^2 / (d + mu)), all >= 1.  Its Q diagonalizes K with
    l = (s - sqrt mu)(s + sqrt mu): K = (Q sign l) diag(|l|) Q^T and
    X = (Q^T diag(e) Q) sign l, the Löwner matrix with e_j |d_j|^2 in F,
    e_c as the rank-one term and |u| on both sides.

    The singular values (and the columns of P and Q, the rows and columns of
    X) come in the solver's order: the k roots ascending, then the deflated
    modes.  Raises LinAlgError if ``dlasd4`` fails.
    """
    M, c, rwa = arrow.modes, arrow.center, arrow.rwa
    if rwa:
        mu = np.abs(arrow.levels).max() + np.linalg.norm(arrow.couplings) + 1
        d = np.sqrt(arrow.levels + mu)
        z = arrow.couplings / d
        z[c] = np.sqrt(arrow.levels[c] + mu - z @ z)
    else:
        d, z = arrow.levels.copy(), arrow.column.copy()
        z[c] = arrow.levels[c]
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
    zn = zs[:k] / np.sqrt(rho)

    # D2[i, j] = ds_j^2 - s_i^2 = (ds_j - s_i)(ds_j + s_i), roots ascending
    D2 = np.empty((M, M))
    sig = np.empty(k)
    for i in range(k):
        delta, sig[i], work, info = lapack.dlasd4(i, ds[:k], zn, rho)
        if info != 0:
            raise np.linalg.LinAlgError(
                f"dlasd4 failed on root {i} of the {M}-mode arrow: info {info}"
            )
        np.multiply(delta, work, out=D2[i, :k])
    if k == 1:  # dlasd4 returns delta = work = 1 for a single root
        D2[0, 0] = -sig[0] ** 2
    D2[:k, k:] = 1.0
    D2[k:] = 1.0
    # Löwner: z_j^2 = prod_i (ds_j^2 - s_i^2) / prod_{m != j} (ds_j^2 - ds_m^2),
    # root i < k - 1 over pole m = i for i < j and m = i + 1 for i >= j, so
    # that by interlacing every ratio lies in (0, 1); root k - 1 left over.
    # 64 roots at a time, the running product in each chunk's first row
    prod = np.ones(k)
    for i0 in range(0, k - 1, 64):
        i1 = min(i0 + 64, k - 1)
        row, col = np.ogrid[i0:i1, :k]
        pole = np.where(row < col, ds[i0:i1, None], ds[i0 + 1 : i1 + 1, None])
        ratio = D2[i0:i1, :k] / ((ds[:k] - pole) * (ds[:k] + pole))
        ratio[0] *= prod
        prod = ratio.prod(axis=0)
    zhat = np.zeros(M)
    zhat[:k] = np.copysign(np.sqrt(np.abs(prod * D2[k - 1, :k])), zs[:k])

    # from here on a row is a singular value, the k roots and then the
    # deflated modes, as P, Q and X hold them; a column is a mode in the
    # sorted order.  By interlacing root i lies between poles i and i + 1;
    # take the nearer (the deflated rows keep their own column)
    i = np.arange(k - 1)
    nearest = np.arange(M)
    nearest[: k - 1] += np.abs(D2[i, i + 1]) < np.abs(D2[i, i])
    s = np.concatenate([sig, ds[k:]])
    if rwa:
        lam = (s - np.sqrt(mu)) * (s + np.sqrt(mu))
        s = np.abs(lam)
    # the unnormalized vectors v_i as the rows of V; deflated: unit vectors
    V = zhat / D2
    V[k:] = 0.0
    np.fill_diagonal(V[k:, k:], 1.0)
    # Y[l, i] = D2[l, j] - D2[i, j] = s_i^2 - s_l^2 at the pole j nearest root i
    Y = np.take(D2, nearest, axis=1)
    del D2
    Y -= Y.diagonal().copy()
    e, signed = weights[perm], sign * ds
    # the Löwner weights e d, or e |d|^2 under the RWA (sign = 1 there)
    weighted = e * signed * ds if rwa else e * signed
    F = V @ (weighted * zhat)
    dF = np.einsum("ij,ij,j->i", V, V, weighted)
    # X_il |u_i| |v_l| in Y[l, i] (|u_l| under the RWA): the deflated rows
    # and columns are held at 1 through the division, then set
    np.fill_diagonal(Y, 1.0)
    Y[k:] = 1.0
    Y[:, k:] = 1.0
    np.divide(np.subtract.outer(F, F).T, Y, out=Y)
    np.fill_diagonal(Y, dF)
    if rwa:
        Y += e[0]
    else:
        Y -= (e[0] * V[:, 0])[:, None]
    Y[k:] = 0.0
    Y[:, k:] = 0.0
    np.fill_diagonal(Y[k:, k:], e[k:] * sign[k:])
    norm_u = np.sqrt(1 + np.einsum("ij,ij,j->i", V, V, ds * ds))
    norm_u[k:] = 1.0
    norm_v = norm_u if rwa else np.sqrt(np.einsum("ij,ij->i", V, V))
    Y /= norm_v[:, None]
    Y /= norm_u

    # P and Q hold the vectors as columns, over the modes in their order
    modes = np.argsort(perm)
    U = V * signed
    U[:, 0] = -1.0
    U[k:, 0] = 0.0
    np.fill_diagonal(U[k:, k:], sign[k:])
    U /= norm_u[:, None]
    Q = U.take(modes, axis=1).T
    del U
    if rwa:
        flip = np.where(lam < 0, -1.0, 1.0)
        Y *= flip[:, None]
        P = Q * flip
    else:
        V /= norm_v[:, None]
        P = V.take(modes, axis=1).T
    return s, P, Q, Y.T


def arrow_svd(arrow: Arrow, weights) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """SVD K = P diag(s) Q^T of an arrow's K = h + Delta, and X = Q^T diag(e) P.

    ``weights`` are the M diagonal entries e of the state (1 - 2n for mode
    occupations n).  ``_broken_arrow_svd`` solves every arrow, with pairing
    or under the RWA, coincident and zero levels included, and writes X
    down as a Löwner matrix, in O(M^2); s is in its order, not sorted.
    Every result is probed: K v = P diag(s) Q^T v, P^T P v = v,
    Q^T Q v = v and X v = Q^T (e * P v) for one fixed vector v, each to
    SPECTRAL_TOL, or ValueError (a NaN residual included).
    """
    weights = np.asarray(weights, dtype=float)
    s, P, Q, X = _broken_arrow_svd(arrow, weights)
    recon, ortho, state = _probe_residuals(arrow, weights, s, P, Q, X)
    if not all(r <= SPECTRAL_TOL for r in (recon, ortho, state)):
        raise ValueError(
            f"arrow SVD failed its probe: reconstruction residual {recon:.3e}, "
            f"orthogonality residual {ortho:.3e}, rotated-state residual {state:.3e}"
        )
    return s, P, Q, X
