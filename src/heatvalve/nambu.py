"""Particle-hole symmetrized representation of quadratic fermionic operators.

A quadratic operator is stored as the 2M x 2M matrix O acting on the mode
vector (a_1, ..., a_M, a_1^dag, ..., a_M^dag), with block structure

    O = [[ h,      Delta ],
         [ -Delta*, -h^T ]],

where h is the Hermitian particle block and Delta the antisymmetric pairing
block.  The operator itself is (1/2) A^dag O A + const_offset.  All
observables follow from the single-particle correlation matrix
chi_ij = <A_i A_j^dag>.

A real operator whose modes couple only through one central mode (the heat
valve) is carried instead by its ``Arrow``: the M x M matrix K = h + Delta,
a diagonal plus the central column (and row), whose SVD ``arrow_svd``
gives the Nambu eigenbasis in the Majorana form.  The dense 2M x 2M matrix
and its ``diagonalize`` stay as the general route and the reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

# Construction-time structural tolerance and accumulated-floating-error
# tolerance for spectral / round-trip checks.
STRUCT_TOL = 1e-12
SPECTRAL_TOL = 1e-10


def ph_swap(modes: int) -> np.ndarray:
    """Permutation matrix exchanging particle index i with hole index i+M."""
    X = np.zeros((2 * modes, 2 * modes))
    X[:modes, modes:] = np.eye(modes)
    X[modes:, :modes] = np.eye(modes)
    return X


def _ph_transpose(A: np.ndarray) -> np.ndarray:
    """ph_swap(M) @ A.T @ ph_swap(M), by swapping blocks instead of multiplying."""
    M = A.shape[0] // 2
    return np.roll(A.T, (M, M), axis=(0, 1))


def _hermiticity_residual(A: np.ndarray) -> float:
    scale = max(np.abs(A).max(), 1.0)
    return float(np.abs(A - A.conj().T).max() / scale)


@dataclass(frozen=True)
class NambuMatrix:
    """2M x 2M particle-hole-symmetrized matrix of a quadratic operator."""

    modes: int
    data: np.ndarray
    const_offset: float = 0.0

    def __post_init__(self):
        self.data.setflags(write=False)

    @property
    def particle_block(self) -> np.ndarray:
        return self.data[: self.modes, : self.modes]

    @property
    def anomalous_block(self) -> np.ndarray:
        return self.data[: self.modes, self.modes :]

    def validate(self, tol: float = STRUCT_TOL) -> None:
        """Raise ValueError if Hermiticity or particle-hole symmetry fails."""
        res = _hermiticity_residual(self.data)
        if res > tol:
            raise ValueError(f"matrix is not Hermitian: residual {res:.3e}")
        scale = max(np.abs(self.data).max(), 1.0)
        ph = np.abs(self.data + _ph_transpose(self.data)).max() / scale
        if ph > tol:
            raise ValueError(f"particle-hole symmetry violated: residual {ph:.3e}")


@dataclass(frozen=True)
class CorrelationMatrix:
    """Single-particle correlation matrix chi_ij = <A_i A_j^dag>."""

    modes: int
    data: np.ndarray

    def __post_init__(self):
        self.data.setflags(write=False)

    def validate(self, tol: float = SPECTRAL_TOL) -> None:
        res = _hermiticity_residual(self.data)
        if res > STRUCT_TOL * 100:
            raise ValueError(f"correlation matrix not Hermitian: residual {res:.3e}")
        evals = np.linalg.eigvalsh(self.data)
        if evals.min() < -tol or evals.max() > 1 + tol:
            raise ValueError(
                f"correlation spectrum outside [0,1]: [{evals.min():.3e}, {evals.max():.3e}]"
            )
        tr = self.data.trace()
        if abs(tr - self.modes) > tol * self.modes:
            raise ValueError(f"trace {tr} != M = {self.modes}")
        ph = np.abs(self.data + _ph_transpose(self.data) - np.eye(2 * self.modes)).max()
        if ph > tol:
            raise ValueError(f"particle-hole constraint violated: residual {ph:.3e}")


@dataclass(frozen=True)
class QuasiparticleBasis:
    """Eigenbasis of a Nambu matrix: H = U diag(eigenvalues) U^dag.

    The spectrum is exactly particle-hole symmetric, eigenvalues[j] ==
    -eigenvalues[2M - 1 - j], so the negative half E[:M] fixes every phase
    of the time evolution.
    """

    modes: int
    eigenvalues: np.ndarray
    transform: np.ndarray

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)
        self.transform.setflags(write=False)


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

    def matrix(self) -> np.ndarray:
        """K as a dense M x M array."""
        K = np.diag(self.levels)
        K[:, self.center] += self.column
        if self.rwa:
            K[self.center] += self.couplings
        return K


def build_nambu(
    particle_block: np.ndarray,
    anomalous_block: np.ndarray | None = None,
    const_offset: float | None = None,
) -> NambuMatrix:
    """Assemble a NambuMatrix from the M x M particle and pairing blocks.

    The pairing block is antisymmetrized internally (its symmetric part is
    the zero operator).  The additive constant defaults to tr(h)/2, which
    makes (1/2) A^dag O A + const the normal-ordered operator.
    """
    h = np.asarray(particle_block)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"particle block must be square, got shape {h.shape}")
    M = h.shape[0]
    res = _hermiticity_residual(h)
    if res > STRUCT_TOL:
        raise ValueError(f"particle block is not Hermitian: residual {res:.3e}")
    if anomalous_block is None:
        delta = np.zeros((M, M))
    else:
        delta = np.asarray(anomalous_block)
        if delta.shape != h.shape:
            raise ValueError(
                f"anomalous block shape {delta.shape} != particle block {h.shape}"
            )
    delta = (delta - delta.T) / 2
    dtype = np.result_type(h, delta, float)
    data = np.zeros((2 * M, 2 * M), dtype=dtype)
    data[:M, :M] = (h + h.conj().T) / 2
    data[:M, M:] = delta
    data[M:, :M] = -delta.conj()
    data[M:, M:] = -data[:M, :M].T
    if const_offset is None:
        const_offset = 0.5 * float(np.real(np.trace(h)))
    return NambuMatrix(modes=M, data=data, const_offset=const_offset)


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
    """SVD K = P diag(s) Q^T, s descending, of an arrow with pairing, and Q^T diag(e) P.

    K^T = diag(d) + e_c z^T with z = K[:, c] (the central level at c) and
    d = levels but d_c = 0, and K^T = S A for S = diag(sign d) and the
    broken arrow A = diag(|d|) + e_c z^T, whose squared singular values
    are the eigenvalues of diag(|d|^2) + z z^T (Gu & Eisenstat 1995).
    LAPACK ``dlasd4`` finds each root s_i of the secular equation together
    with D2_ij = (|d_j| - s_i)(|d_j| + s_i), to full relative accuracy.
    Löwner's formula then recomputes z from the roots, which keeps the
    vectors orthogonal, and v_i ~ z_j / D2_ij, u_i ~ [-1 at c, |d_j| z_j / D2_ij]
    in closed form, with P = V and Q = S U.  Every difference of squares is
    formed from these products, never as d_j^2 - s_i^2.  As in LAPACK
    ``dlasd2``, a coupling |z_j| <= tol is deflated: s = |d_j| with unit
    vectors.

    The same closed forms make X = Q^T diag(e) P, for the weights e, a
    Löwner matrix: with F_i = sum_j e_j d_j z_j^2 / D2_ij (one product
    with the unnormalized V) and F'_i = sum_j e_j d_j z_j^2 / D2_ij^2,
    X_ik |u_i| |v_k| = (F_i - F_k) / (s_i^2 - s_k^2) + e_c z_c / s_k^2, and
    F'_i in place of the quotient on the diagonal.  s_i^2 - s_k^2 is taken
    as D2_kj - D2_ij at the pole j nearest root i, which keeps close roots
    accurate; deflated modes give the diagonal e_j sign d_j.  O(M^2) work,
    at most four M x M arrays at once.

    Returns None, and the caller falls back to the dense SVD, when
    |z_c| <= tol, when two coupled levels |d| (0 included) lie within tol,
    or when ``dlasd4`` fails.
    """
    M, c = arrow.modes, arrow.center
    z = arrow.column.copy()
    z[c] = arrow.levels[c]
    d = arrow.levels.copy()
    d[c] = 0.0
    tol = 8 * np.finfo(float).eps * max(np.abs(d).max(), np.abs(z).max())
    if abs(z[c]) <= tol:
        return None
    # sorted order: c, then the coupled modes by |d|, then the deflated ones
    live = np.flatnonzero(np.abs(z) > tol)
    live = live[live != c]
    perm = np.concatenate(
        [[c], live[np.argsort(np.abs(d[live]), kind="stable")], np.flatnonzero(np.abs(z) <= tol)]
    )
    k = 1 + len(live)
    ds, zs = np.abs(d[perm]), z[perm]
    sign = np.where(d[perm] < 0, -1.0, 1.0)
    if np.any(np.diff(ds[:k]) <= tol):
        return None
    rho = float(zs[:k] @ zs[:k])
    zn = zs[:k] / np.sqrt(rho)

    # D2[i, j] = ds_j^2 - s_i^2 = (ds_j - s_i)(ds_j + s_i), roots ascending
    D2 = np.empty((M, M))
    sig = np.empty(k)
    for i in range(k):
        delta, sig[i], work, info = lapack.dlasd4(i, ds[:k], zn, rho)
        if info != 0:
            return None
        np.multiply(delta, work, out=D2[i, :k])
    D2[:k, k:] = 1.0
    D2[k:] = 1.0
    # Löwner: z_j^2 = prod_i (ds_j^2 - s_i^2) / prod_{m != j} (ds_j^2 - ds_m^2),
    # root i < k - 1 over pole m = i for i < j and m = i + 1 for i >= j, so
    # that by interlacing every ratio lies in (0, 1); root k - 1 left over
    row, col = np.ogrid[: k - 1, :k]
    dm = np.where(row < col, ds[: k - 1, None], ds[1:k, None])
    den = ds[:k] + dm
    np.subtract(ds[:k], dm, out=dm)
    dm *= den
    del den
    np.divide(D2[: k - 1, :k], dm, out=dm)
    zhat = np.zeros(M)
    zhat[:k] = np.copysign(np.sqrt(np.abs(dm.prod(axis=0) * D2[k - 1, :k])), zs[:k])
    del dm

    # by interlacing root i lies between poles i and i + 1; take the nearer
    i = np.arange(k - 1)
    nearest = np.zeros(M, dtype=np.intp)
    nearest[: k - 1] = i + (np.abs(D2[i, i + 1]) < np.abs(D2[i, i]))
    nearest[k - 1] = k - 1
    # from here on a row is a singular value, by descending s as P, Q and X
    # hold them; a column is a mode in the sorted order
    s = np.concatenate([sig, ds[k:]])
    order = np.argsort(-s, kind="stable")
    D2 = D2[order]
    nearest = nearest[order]
    dead = np.argsort(order)[k:]  # the rows of the deflated modes
    deflated = (dead, np.arange(k, M))
    # the unnormalized vectors v_i as the rows of V; deflated: unit vectors
    V = zhat / D2
    V[dead] = 0.0
    V[deflated] = 1.0
    # Y[l, i] = D2[l, j] - D2[i, j] = s_i^2 - s_l^2 at the pole j nearest root i
    Y = np.take(D2, nearest, axis=1)
    del D2
    Y -= Y.diagonal().copy()
    e, signed = weights[perm], sign * ds
    F = V @ (e * signed * zhat)
    dF = np.einsum("ij,ij,j->i", V, V, e * signed)
    # X_il |u_i| |v_l| in Y[l, i]: the deflated rows and columns are held
    # at 1 through the division, then set
    np.fill_diagonal(Y, 1.0)
    Y[dead] = 1.0
    Y[:, dead] = 1.0
    np.divide(np.subtract.outer(F, F).T, Y, out=Y)
    np.fill_diagonal(Y, dF)
    Y -= (e[0] * V[:, 0])[:, None]
    Y[dead] = 0.0
    Y[:, dead] = 0.0
    Y[dead, dead] = e[k:] * sign[k:]
    norm_v = np.sqrt(np.einsum("ij,ij->i", V, V))
    norm_u = np.sqrt(1 + np.einsum("ij,ij,j->i", V, V, ds * ds))
    norm_u[dead] = 1.0
    Y /= norm_v[:, None]
    Y /= norm_u

    # P and Q hold the vectors as columns, over the modes in their order
    modes = np.argsort(perm)
    U = V * signed
    U[:, 0] = -1.0
    U[dead, 0] = 0.0
    U[deflated] = sign[k:]
    U /= norm_u[:, None]
    Q = U.take(modes, axis=1).T
    del U
    V /= norm_v[:, None]
    P = V.take(modes, axis=1).T
    return s[order], P, Q, Y.T


def arrow_svd(arrow: Arrow, weights) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """SVD K = P diag(s) Q^T, s descending, of an arrow's K = h + Delta, and X = Q^T diag(e) P.

    ``weights`` are the M diagonal entries e of the state (1 - 2n for mode
    occupations n).  Without pairing (RWA, or no coupling) K is symmetric,
    and K = V diag(l) V^T is already an SVD with s = |l|, Q = V and
    P = V sign(l); eigh finds it several times faster than the general SVD.
    With pairing K is a broken arrow, solved in O(M^2) by
    ``_broken_arrow_svd``, which also writes X down in O(M^2) as a Löwner
    matrix; the dense ``np.linalg.svd`` takes the arrows that solver
    declines (coincident or zero levels).  Where eigh or the dense SVD
    solves K, X is the M^3 product.  Every result is probed:
    K v = P diag(s) Q^T v, P^T P v = v, Q^T Q v = v and X v = Q^T (e * P v)
    for one fixed vector v, each to SPECTRAL_TOL, or ValueError.
    """
    weights = np.asarray(weights, dtype=float)
    X = None
    try:
        if arrow.rwa or not arrow.couplings.any():
            lam, V = np.linalg.eigh(arrow.matrix())
            order = np.argsort(-np.abs(lam), kind="stable")
            s, Q = np.abs(lam[order]), V[:, order]
            P = Q * np.where(lam[order] < 0, -1.0, 1.0)
        elif (found := _broken_arrow_svd(arrow, weights)) is not None:
            s, P, Q, X = found
        else:
            P, s, Qt = np.linalg.svd(arrow.matrix())
            Q = Qt.T
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"SVD failed on {arrow.modes}-mode arrow: {exc}") from exc
    if X is None:
        X = (Q.T * weights) @ P
    recon, ortho, state = _probe_residuals(arrow, weights, s, P, Q, X)
    if max(recon, ortho, state) > SPECTRAL_TOL:
        raise ValueError(
            f"arrow SVD failed its probe: reconstruction residual {recon:.3e}, "
            f"orthogonality residual {ortho:.3e}, rotated-state residual {state:.3e}"
        )
    return s, P, Q, X


def diagonalize(H: NambuMatrix) -> QuasiparticleBasis:
    """Eigendecomposition by the 2M x 2M Hermitian eigh, eigenvalues ascending.

    The particle-hole pairing of the spectrum (every eigenvalue comes with
    its negative) is verified to SPECTRAL_TOL, so construction bugs raise
    ValueError here rather than propagating, and then made exact: the
    basis stores (E - E[::-1]) / 2.  This is the general route and the
    tests' reference; a valve is solved from its arrow (``arrow_svd``).
    """
    try:
        evals, U = np.linalg.eigh(H.data)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"eigensolver failed on {2 * H.modes}x{2 * H.modes} Nambu matrix: {exc}"
        ) from exc
    scale = max(np.abs(evals).max(), 1.0)
    pairing = np.abs(evals + evals[::-1]).max() / scale
    if pairing > SPECTRAL_TOL:
        raise ValueError(
            f"spectrum not particle-hole symmetric: pairing residual {pairing:.3e}"
        )
    return QuasiparticleBasis(
        modes=H.modes, eigenvalues=(evals - evals[::-1]) / 2, transform=U
    )


def expectation(O: NambuMatrix, chi: CorrelationMatrix) -> float:
    """Expectation value <O> = -(1/2) Re tr(O chi) + const_offset."""
    if O.modes != chi.modes:
        raise ValueError(f"mode mismatch: operator M={O.modes}, state M={chi.modes}")
    tr = np.trace(O.data @ chi.data)
    return -0.5 * float(tr.real) + O.const_offset


def observable_rate(O: NambuMatrix, H: NambuMatrix, chi: CorrelationMatrix) -> float:
    """Instantaneous d<O>/dt = -(1/2i) tr(chi [O, H]) under evolution by H."""
    if O.modes != H.modes or O.modes != chi.modes:
        raise ValueError(
            f"mode mismatch: O M={O.modes}, H M={H.modes}, chi M={chi.modes}"
        )
    comm = O.data @ H.data - H.data @ O.data
    val = np.trace(chi.data @ comm) / (-2j)
    scale = max(abs(val), 1.0)
    if abs(val.imag) / scale > SPECTRAL_TOL:
        raise ValueError(f"rate has spurious imaginary part {val.imag:.3e}")
    return float(val.real)
