"""Exact time evolution of the correlation matrix and heat-current traces.

The Hamiltonian is time independent, so chi(t) = e^{-iHt} chi(0) e^{iHt}
is evaluated by phase rotation in the eigenbasis: one O(M^3)
eigendecomposition up front (an M x M SVD for real Hamiltonians, the
2M x 2M eigh otherwise; see ``nambu.diagonalize``), then O(M^2) work per
time point.  A diagonal chi(0) is rotated into that basis from M x M
blocks when the basis is a paired SVD basis, by one scaled product
otherwise.  Heat currents d<H_bath>/dt = -(1/2i) tr(chi(t) [H_bath, H])
are evaluated as a low-rank contraction in the eigenbasis, which never
rebuilds the full chi(t); a dense evaluation path is retained for
cross-checking.  Particle-conserving (RWA) instances can instead be
evolved with the reduced M x M propagator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nambu import (
    SPECTRAL_TOL,
    STRUCT_TOL,
    CorrelationMatrix,
    NambuMatrix,
    QuasiparticleBasis,
    diagonalize,
)

# Below this dimension the dense contraction path is always cheap enough.
_DENSE_DIM = 600


@dataclass(frozen=True)
class Propagator:
    """Eigenbasis of the total Hamiltonian plus the rotated initial state."""

    basis: QuasiparticleBasis
    rotated_initial: np.ndarray  # U^dag chi(0) U

    def __post_init__(self):
        self.rotated_initial.setflags(write=False)

    @property
    def modes(self) -> int:
        return self.basis.modes


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
        if gap > 1e-10:
            raise ValueError(f"total != normal + anomalous, max gap {gap:.3e}")


def _rotate_paired_diagonal(U: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """U^T diag(a, b) U for a paired basis and a + b = 1, from M x M blocks.

    With K = P S Q^T the first M columns of U are [Q - P; Q + P]/2.  For
    e = a - b and X = Q^T diag(e) P the rotated state has blocks
    1/2 - (X + X^T)/4 (negative energies), 1/2 + (X + X^T)/4 (positive) and
    (X - X^T)/4 between them, the positive side in reversed order.  One
    M^3 product instead of one (2M)^3 product.
    """
    M = len(diag) // 2
    Q = U[:M, :M] + U[M:, :M]
    P = U[M:, :M] - U[:M, :M]
    X = (Q.T * (diag[:M] - diag[M:])) @ P
    del Q, P
    S = X + X.T
    A = X - X.T
    del X
    S /= 4
    A /= 4
    rotated = np.block([[-S, A[:, ::-1]], [A.T[::-1, :], S[::-1, ::-1]]])
    rotated[np.diag_indices(2 * M)] += 0.5
    return rotated


def make_propagator(H: NambuMatrix, chi0: CorrelationMatrix) -> Propagator:
    if H.modes != chi0.modes:
        raise ValueError(f"mode mismatch: H M={H.modes}, chi0 M={chi0.modes}")
    M = H.modes
    basis = diagonalize(H)
    U = basis.transform
    diag = np.diagonal(chi0.data)
    if np.count_nonzero(chi0.data) != np.count_nonzero(diag):
        rotated = U.conj().T @ chi0.data @ U
    elif (
        basis.paired
        and np.isrealobj(diag)
        and np.abs(diag[:M] + diag[M:] - 1.0).max() <= STRUCT_TOL
    ):
        rotated = _rotate_paired_diagonal(U, diag)
    else:
        # diagonal initial state: one matmul instead of two
        rotated = (U.conj().T * diag) @ U
    return Propagator(basis=basis, rotated_initial=rotated)


def evolve(prop: Propagator, t: float) -> CorrelationMatrix:
    """chi(t) by unitary conjugation; negative t is time reversal."""
    U = prop.basis.transform
    z = np.exp(-1j * prop.basis.eigenvalues * t)
    rotated_t = (z[:, None] * prop.rotated_initial) * z.conj()[None, :]
    data = U @ rotated_t @ U.conj().T
    return CorrelationMatrix(modes=prop.modes, data=data)


def _phase_matrix(eigenvalues: np.ndarray, times: np.ndarray) -> np.ndarray:
    return np.exp(-1j * np.multiply.outer(eigenvalues, times))


def _phase_parts(eigenvalues: np.ndarray, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts X, Y of the phases z_j(t) = exp(-i E_j t)."""
    arg = np.multiply.outer(eigenvalues, times)
    X = np.cos(arg)
    Y = np.sin(arg, out=arg)
    np.negative(Y, out=Y)
    return X, Y


def _contract(B: np.ndarray, phases: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """sum_{jk} B_jk z_j(t) conj(z_k(t)) for every time column of z = X + iY."""
    X, Y = phases
    if not np.isrealobj(B):
        Z = X + 1j * Y
        return np.einsum("jt,jt->t", Z, B @ Z.conj())
    # real B: z (B conj z) = X.BX + Y.BY + i (Y.BX - X.BY), all real arithmetic
    BX = B @ X
    BY = B @ Y
    re = np.einsum("jt,jt->t", X, BX) + np.einsum("jt,jt->t", Y, BY)
    im = np.einsum("jt,jt->t", Y, BX) - np.einsum("jt,jt->t", X, BY)
    return re + 1j * im


def _trace_series(prop: Propagator, C: np.ndarray, times: np.ndarray) -> np.ndarray:
    """tr(chi(t) C) for all times, via the dense eigenbasis contraction."""
    U = prop.basis.transform
    Ct = U.conj().T @ C @ U
    B = prop.rotated_initial * Ct.T
    return _contract(B, _phase_parts(prop.basis.eigenvalues, times))


def expectation_series(prop: Propagator, O: NambuMatrix, times) -> np.ndarray:
    """<O>(t) = -(1/2) Re tr(O chi(t)) + const_offset over a time grid."""
    times = np.asarray(times, dtype=float)
    if O.modes != prop.modes:
        raise ValueError(f"mode mismatch: O M={O.modes}, propagator M={prop.modes}")
    vals = _trace_series(prop, O.data, times)
    return -0.5 * vals.real + O.const_offset


def _block_masks(M: int, idx: np.ndarray, r: int):
    """Split vector entries at positions idx into same-block / cross-block wrt index r."""
    same = (idx < M) == (r < M)
    return same, ~same


def _lowrank_terms(C: np.ndarray, M: int):
    """Decompose a sparse commutator into rank-1 terms u e_r^T / e_r v^T.

    Returns (normal_terms, anomalous_terms) where each term is
    ("col", r, vec) meaning vec e_r^T, or ("row", r, vec) meaning e_r vec^T,
    with vec masked to the same-block (normal) or cross-block (anomalous)
    entries.  Returns None if the nonzeros are not covered by a few
    rows/columns.
    """
    nz_i, nz_j = np.nonzero(C)
    if len(nz_i) == 0:
        return [], []
    counts = np.bincount(nz_i, minlength=2 * M) + np.bincount(nz_j, minlength=2 * M)
    cover = set(np.nonzero(counts > 4)[0])
    if not cover or len(cover) > 8:
        return None
    covered = np.isin(nz_i, list(cover)) | np.isin(nz_j, list(cover))
    if not covered.all():
        return None
    normal, anomalous = [], []
    cover_arr = np.array(sorted(cover))
    for r in cover_arr:
        col = C[:, r].copy()
        idx = np.nonzero(col)[0]
        if len(idx):
            same, cross = _block_masks(M, idx, r)
            for mask, out in ((same, normal), (cross, anomalous)):
                if mask.any():
                    v = np.zeros_like(col)
                    v[idx[mask]] = col[idx[mask]]
                    out.append(("col", int(r), v))
        row = C[r, :].copy()
        row[cover_arr] = 0.0  # already counted by the column terms
        idx = np.nonzero(row)[0]
        if len(idx):
            same, cross = _block_masks(M, idx, r)
            for mask, out in ((same, normal), (cross, anomalous)):
                if mask.any():
                    v = np.zeros_like(row)
                    v[idx[mask]] = row[idx[mask]]
                    out.append(("row", int(r), v))
    return normal, anomalous


def _lowrank_B(prop: Propagator, terms) -> np.ndarray | None:
    """B = chi~ * (U^dag C U)^T for a sum of rank-1 terms of C.

    The k terms give (U^dag C U)^T = L R with L = [b_1 ... b_k] (2M x k) and
    R = [a_1 ... a_k]^T (k x 2M): one product, then one in-place multiply.
    """
    if not terms:
        return None
    U = prop.basis.transform
    chi_rot = prop.rotated_initial
    dtype = np.result_type(U, chi_rot, *(vec for _, _, vec in terms))
    L = np.empty((U.shape[0], len(terms)), dtype=dtype)
    R = np.empty((len(terms), U.shape[0]), dtype=dtype)
    for i, (kind, r, vec) in enumerate(terms):
        if kind == "col":  # C term: vec e_r^T
            R[i] = U.conj().T @ vec
            L[:, i] = U[r, :]
        else:  # C term: e_r vec^T
            R[i] = np.conj(U[r, :])
            L[:, i] = vec @ U
    B = L @ R
    B *= chi_rot
    return B


def _split_blocks(C: np.ndarray, M: int):
    """Mask a 2M x 2M matrix into (particle+hole diagonal blocks, cross blocks)."""
    Cn = np.zeros_like(C)
    Cn[:M, :M] = C[:M, :M]
    Cn[M:, M:] = C[M:, M:]
    return Cn, C - Cn


def heat_current(
    prop: Propagator,
    H: NambuMatrix,
    H_bath: NambuMatrix,
    times,
    method: str = "auto",
) -> CurrentTrace:
    """Heat current into the bath, -(1/2i) tr(chi(t) [H_bath, H]).

    The normal part collects the particle-conserving cross-correlators,
    the anomalous part the pairing ones; the split is the block structure
    of the commutator.  ``method`` is "auto", "lowrank" or "dense"; dense
    is the O(M^3)-per-setup cross-check path.
    """
    times = np.asarray(times, dtype=float)
    M = prop.modes
    if H.modes != M or H_bath.modes != M:
        raise ValueError(
            f"mode mismatch: propagator M={M}, H M={H.modes}, H_bath M={H_bath.modes}"
        )
    d = np.diagonal(H_bath.data)
    if np.count_nonzero(H_bath.data) == np.count_nonzero(d):
        diag_residual = 0.0
    else:
        diag_residual = np.abs(H_bath.data - np.diag(d)).max()
    if diag_residual > 1e-12 * max(np.abs(d).max(), 1.0):
        raise ValueError(
            "H_bath must be diagonal in the mode basis (bath-restricted free Hamiltonian)"
        )
    # [H_bath, H] elementwise for diagonal H_bath
    C = np.subtract.outer(d, d).astype(H.data.dtype, copy=False)
    C *= H.data

    if method not in ("auto", "lowrank", "dense"):
        raise ValueError(f"unknown method {method!r}")
    use_dense = method == "dense" or (method == "auto" and 2 * M <= _DENSE_DIM)
    terms = None
    if not use_dense:
        terms = _lowrank_terms(C, M)
        if terms is not None:
            del C
        else:
            if method == "lowrank":
                raise ValueError("commutator structure not low-rank; use method='dense'")
            use_dense = True

    phases = _phase_parts(prop.basis.eigenvalues, times)

    def series(B):
        if B is None:
            return np.zeros_like(times)
        vals = _contract(B, phases)
        # tr(chi * commutator) is purely imaginary; the real residual is noise
        residual = np.abs(vals.real).max(initial=0.0)
        scale = max(np.abs(vals.imag).max(initial=0.0), 1.0)
        if residual > SPECTRAL_TOL * scale * 100:
            raise ValueError(f"current has spurious real trace component {residual:.3e}")
        return -0.5 * vals.imag

    # one 2M x 2M B alive at a time
    if use_dense:
        Cn, Ca = _split_blocks(C, M)
        del C
        U = prop.basis.transform
        normal = series(prop.rotated_initial * (U.conj().T @ Cn @ U).T)
        anomalous = series(prop.rotated_initial * (U.conj().T @ Ca @ U).T)
    else:
        normal = series(_lowrank_B(prop, terms[0]))
        anomalous = series(_lowrank_B(prop, terms[1]))
    return CurrentTrace(
        times=times, total=normal + anomalous, normal=normal, anomalous=anomalous
    )


def steady_state_estimate(trace: CurrentTrace, window=(20.0, 50.0)) -> tuple[float, float]:
    """Mean and standard deviation of the total current inside a time window."""
    lo, hi = window
    mask = (trace.times >= lo) & (trace.times <= hi)
    n = int(mask.sum())
    if n == 0:
        raise ValueError(f"no trace samples inside window [{lo}, {hi}]")
    if n < 10:
        raise ValueError(f"only {n} samples inside window [{lo}, {hi}]; need >= 10")
    vals = trace.total[mask]
    return float(vals.mean()), float(vals.std())


@dataclass(frozen=True)
class ReducedPropagator:
    """Particle-conserving (M x M) propagator for RWA instances.

    The full Nambu matrix of a particle-conserving Hamiltonian is block
    diagonal with the two blocks differing only by a sign, so it suffices
    to evolve G_ij = <a_i^dag a_j> with the M x M particle block h:
    G(t) = e^{i h^T t} G(0) e^{-i h^T t}.
    """

    eigenvalues: np.ndarray       # spectrum of h^T (= spectrum of h)
    transform: np.ndarray         # W with h^T = W diag(E) W^dag
    rotated_initial: np.ndarray   # W^dag G(0) W

    def __post_init__(self):
        for arr in (self.eigenvalues, self.transform, self.rotated_initial):
            arr.setflags(write=False)

    @property
    def modes(self) -> int:
        return len(self.eigenvalues)


def make_reduced_propagator(h: np.ndarray, occupations0: np.ndarray) -> ReducedPropagator:
    """Reduced propagator from the particle block and initial occupations."""
    h = np.asarray(h)
    res = np.abs(h - h.conj().T).max() / max(np.abs(h).max(), 1.0)
    if res > 1e-12:
        raise ValueError(f"particle block not Hermitian: residual {res:.3e}")
    # h Hermitian implies h^T = conj(h), also Hermitian
    E, W = np.linalg.eigh(np.conj(h))
    occ = np.asarray(occupations0, dtype=float)
    return ReducedPropagator(eigenvalues=E, transform=W, rotated_initial=(W.conj().T * occ) @ W)


def reduced_heat_current(
    rprop: ReducedPropagator, h: np.ndarray, bath_diag: np.ndarray, times
) -> np.ndarray:
    """d<H_bath>/dt = i tr(G(t) [D, h^T]) with D = diag(bath_diag)."""
    times = np.asarray(times, dtype=float)
    d = np.asarray(bath_diag, dtype=float)
    if len(d) != rprop.modes:
        raise ValueError(f"bath_diag length {len(d)} != M={rprop.modes}")
    C = 1j * (d[:, None] - d[None, :]) * h.T
    W = rprop.transform
    Ct = W.conj().T @ C @ W
    B = rprop.rotated_initial * Ct.T
    # G(t) = W e^{iEt} G~ e^{-iEt} W^dag, so tr(G(t)C) picks up conj phases
    Z = _phase_matrix(rprop.eigenvalues, times)
    vals = np.einsum("jt,jt->t", Z.conj(), B @ Z)
    residual = np.abs(vals.imag).max(initial=0.0)
    scale = max(np.abs(vals.real).max(initial=0.0), 1.0)
    if residual > SPECTRAL_TOL * scale * 100:
        raise ValueError(f"reduced current has spurious imaginary part {residual:.3e}")
    return vals.real
