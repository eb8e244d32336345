"""Particle-hole symmetrized representation of quadratic fermionic operators.

A quadratic operator is stored as the 2M x 2M matrix O acting on the mode
vector (a_1, ..., a_M, a_1^dag, ..., a_M^dag), with block structure

    O = [[ h,      Delta ],
         [ -Delta*, -h^T ]],

where h is the Hermitian particle block and Delta the antisymmetric pairing
block.  The operator itself is (1/2) A^dag O A + const_offset.  All
observables follow from the single-particle correlation matrix
chi_ij = <A_i A_j^dag>.
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

    The spectrum is exactly particle-hole paired, eigenvalues[j] ==
    -eigenvalues[2M - 1 - j], on either path of ``diagonalize``, so the
    negative half E[:M] fixes every phase of the time evolution.
    ``paired`` marks a real transform of Bogoliubov form
    [[u, v J], [v, u J]] (J reverses column order), with the negative
    energies in the first M columns.  Such a basis comes from the SVD path
    of ``diagonalize``; it lets a diagonal initial state be rotated from
    M x M blocks (see ``evolution.make_propagator``).
    """

    modes: int
    eigenvalues: np.ndarray
    transform: np.ndarray
    const_offset: float = 0.0
    paired: bool = False

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)
        self.transform.setflags(write=False)


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


def _majorana_block(H: NambuMatrix) -> np.ndarray | None:
    """K = h + Delta if H is real with exact Nambu block structure, else None.

    O(M^2): h symmetric, Delta antisymmetric, lower blocks -Delta and -h.
    """
    if not np.isrealobj(H.data):
        return None
    M = H.modes
    h, delta = H.particle_block, H.anomalous_block
    if not (
        np.array_equal(h, h.T)
        and np.array_equal(delta, -delta.T)
        and np.array_equal(H.data[M:, :M], -delta)
        and np.array_equal(H.data[M:, M:], -h)
    ):
        return None
    return h + delta


def _probe_residuals(H: np.ndarray, evals: np.ndarray, U: np.ndarray) -> tuple[float, float]:
    """Relative residuals of H = U diag(evals) U^T and U^T U = 1 on one probe.

    A fixed pseudo-random vector makes both checks O(M^2) matrix-vector work.
    """
    v = np.random.default_rng(0x5EED).standard_normal(H.shape[0])
    norm = np.linalg.norm(v)
    w = U.T @ v
    scale = max(np.abs(evals).max(initial=0.0), 1.0) * norm
    recon = np.linalg.norm(H @ v - U @ (evals * w)) / scale
    ortho = np.linalg.norm(U @ w - v) / norm
    return float(recon), float(ortho)


def _arrow_column(K: np.ndarray) -> int | None:
    """The column c that holds every off-diagonal nonzero of K, else None."""
    offdiag = np.count_nonzero(K, axis=0) - (np.diagonal(K) != 0)
    c = int(np.argmax(offdiag))
    if offdiag[c] == 0 or offdiag.sum() != offdiag[c]:
        return None
    return c


def _broken_arrow_svd(K: np.ndarray, c: int):
    """SVD K = P diag(s) Q^T, s descending, of a diagonal plus column c.

    K^T = diag(d) + e_c z^T with z = K[:, c] and d_c = 0, and
    K^T = S A for S = diag(sign d) and the broken arrow A = diag(|d|) +
    e_c z^T, whose squared singular values are the eigenvalues of
    diag(|d|^2) + z z^T (Gu & Eisenstat 1995).  LAPACK ``dlasd4`` finds
    each root s_i of the secular equation together with |d| - s_i and
    |d| + s_i, both to full relative accuracy.  Löwner's formula then
    recomputes z from the roots, which keeps the vectors orthogonal, and
    v_i ~ z_j / (d_j^2 - s_i^2), u_i ~ [-1 at c, |d_j| z_j / (d_j^2 - s_i^2)]
    in closed form, with P = V and Q = S U.  Every difference of squares is
    formed as a product, never as d_j^2 - s_i^2.  As in LAPACK ``dlasd2``,
    a coupling |z_j| <= tol is deflated: s = |d_j| with unit vectors.
    Returns None, and the caller falls back to the dense SVD, when
    |z_c| <= tol, when two coupled levels |d| (0 included) lie within tol,
    or when ``dlasd4`` fails.
    """
    M = K.shape[0]
    z = K[:, c].copy()
    d = np.diagonal(K).copy()
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

    V = np.divide(zhat, D2, out=D2)
    U = V * ds
    U[:, 0] = -1.0
    U *= sign
    deflated = (np.arange(k, M), np.arange(k, M))
    for X in (V, U):
        X[k:] = 0.0
        X[deflated] = 1.0
        X /= np.sqrt(np.einsum("ij,ij->i", X, X))[:, None]
    U[deflated] = sign[k:]
    # the rows of V and U are the vectors over the sorted modes; P and Q
    # hold them as columns by descending s, over the modes in their order
    s = np.concatenate([sig, ds[k:]])
    order = np.argsort(-s, kind="stable")
    rows = np.argsort(perm)
    V[:] = V[order]
    P = np.ascontiguousarray(V.T)
    del V
    P = P[rows]
    U[:] = U[order]
    Q = np.ascontiguousarray(U.T)
    del U
    Q = Q[rows]
    return s[order], P, Q


def _diagonalize_svd(K: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a real Nambu matrix from the SVD K = P diag(s) Q^T.

    W = [[1, 1], [1, -1]]/sqrt(2) maps H to [[0, K^T], [K, 0]] (the Majorana
    form), whose eigenvectors are [q; +-p]/sqrt(2) with energies +-s.
    Without pairing (RWA) K is symmetric, and K = V diag(l) V^T is already
    an SVD with s = |l|, Q = V and P = V sign(l); eigh finds it several
    times faster than the general SVD.  The exact valve's K is diag(levels)
    plus the central column, a broken arrow, solved in O(M^2) by
    ``_broken_arrow_svd``; the general ``np.linalg.svd`` takes every other
    K and the broken arrows that solver declines.
    """
    try:
        if np.array_equal(K, K.T):
            lam, V = np.linalg.eigh(K)
            order = np.argsort(-np.abs(lam), kind="stable")
            s, Q = np.abs(lam[order]), V[:, order]
            P = Q * np.where(lam[order] < 0, -1.0, 1.0)
        else:
            c = _arrow_column(K)
            found = None if c is None else _broken_arrow_svd(K, c)
            if found is None:
                P, s, Qt = np.linalg.svd(K)
                Q = Qt.T
            else:
                s, P, Q = found
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"SVD failed on {K.shape} Majorana block: {exc}") from exc
    lo = (Q - P) / 2
    hi = (Q + P) / 2
    U = np.block([[lo, hi[:, ::-1]], [hi, lo[:, ::-1]]])
    return np.concatenate([-s, s[::-1]]), U


def diagonalize(H: NambuMatrix) -> QuasiparticleBasis:
    """Eigendecomposition with eigenvalues sorted ascending.

    A real H with exact Nambu block structure (h symmetric, Delta
    antisymmetric; this covers every valve configuration with real
    couplings, exact or RWA) is solved as the M x M SVD of K = h + Delta:
    by eigh when Delta = 0 (RWA), in O(M^2) by the broken-arrow secular
    solver when K is a diagonal plus one column (the exact valve, internal
    couplings folded in), by the dense SVD otherwise or when that solver
    declines (coincident or zero levels).  The path follows from K alone.
    Its spectrum is particle-hole paired by construction, so instead the
    result of every SVD path is probed: H v = U diag(E) U^T v and
    U^T U v = v for one fixed vector v, each to SPECTRAL_TOL.  Any other H
    (complex, or real but breaking the block structure) takes the 2M x 2M
    Hermitian ``eigh``, whose particle-hole pairing of the spectrum (every
    eigenvalue comes with its negative) is verified to SPECTRAL_TOL and
    then made exact: the basis stores (E - E[::-1]) / 2, so every path
    returns E = [-s, s[::-1]].
    Either way construction bugs raise ValueError here rather than
    propagating.
    """
    K = _majorana_block(H)
    if K is not None:
        evals, U = _diagonalize_svd(K)
        recon, ortho = _probe_residuals(H.data, evals, U)
        if recon > SPECTRAL_TOL or ortho > SPECTRAL_TOL:
            raise ValueError(
                f"SVD quasiparticle basis failed its probe: reconstruction residual "
                f"{recon:.3e}, orthogonality residual {ortho:.3e}"
            )
        return QuasiparticleBasis(
            modes=H.modes, eigenvalues=evals, transform=U,
            const_offset=H.const_offset, paired=True,
        )
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
        modes=H.modes, eigenvalues=(evals - evals[::-1]) / 2, transform=U,
        const_offset=H.const_offset,
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
