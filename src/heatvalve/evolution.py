"""Exact time evolution of the correlation matrix and heat-current traces.

The Hamiltonian is time independent, so chi(t) = e^{-iHt} chi(0) e^{iHt}
is evaluated by phase rotation in the eigenbasis: one O(M^3)
eigendecomposition up front (an M x M SVD for real Hamiltonians, exact or
RWA, the 2M x 2M eigh otherwise; see ``nambu.diagonalize``), then O(M^2)
work per time point.  A diagonal chi(0) is rotated into that basis from
M x M blocks when the basis is a paired SVD basis, by one scaled product
otherwise.  Heat currents d<H_bath>/dt = -(1/2i) tr(chi(t) [H_bath, H])
are contracted in the eigenbasis without rebuilding chi(t).  This rests on
one structural assumption: the commutator lives on the rows and columns of
the few non-bath modes the bath couples to (the central particle and hole
of the valve), so it is a sum of at most four rank-1 terms written down
from H.  An H that couples bath levels to each other breaks it and is
refused with ValueError; fold such couplings in with
``valve.apply_internal_couplings`` first.
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


def _contract_paired(B: np.ndarray, phases: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """``_contract`` for a paired basis, E = [-s, s[::-1]], from M x M blocks.

    With c = cos(st) and S = sin(st) the phases are c + iS on the negative
    side and c - iS on the reversed positive side.  Indexing the four blocks
    of B by singular value (B12 = B[:M, M:][:, ::-1] and so on) gives
    Re = c.(B11 + B12 + B21 + B22) c + S.(B11 - B12 - B21 + B22) S and
    Im = S.G c with G = (B11 + B12 - B21 - B22) + (B12 - B11 - B21 + B22)^T:
    three M x M products per time point instead of two 2M x 2M ones.  Both
    are linear in B, so a complex B is contracted exactly as well.
    """
    c, S = phases
    M = len(c)
    B11 = B[:M, :M]
    B12 = B[:M, M:][:, ::-1]
    B21 = B[M:, :M][::-1]
    B22 = B[M:, M:][::-1, ::-1]
    # each sum of blocks in place in one M x M array, at most two alive
    G = B11 + B12
    G -= B21
    G -= B22
    GT = B12 - B11
    GT -= B21
    GT += B22
    G += GT.T
    del GT
    im = np.einsum("jt,jt->t", S, G @ c)
    A = np.add(B11, B12, out=G)
    A += B21
    A += B22
    re = np.einsum("jt,jt->t", c, A @ c)
    np.subtract(B11, B12, out=A)
    A -= B21
    A += B22
    re += np.einsum("jt,jt->t", S, A @ S)
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


def _commutator_terms(H: NambuMatrix, d: np.ndarray):
    """Rank-1 terms of C = [diag(d), H], C_ij = (d_i - d_j) H_ij.

    The bath is the set of modes with d != 0.  C vanishes between two
    non-bath modes, and between two bath modes once intra-bath couplings are
    folded into the levels; the latter is checked.  Then
    C = sum_r (C[:, r] e_r^T + e_r C[r, :]) over the non-bath modes r that H
    couples to the bath: in the valve the central particle and hole, so the
    rank is at most 4.  Entries in r's own particle or hole block are
    normal, the rest anomalous.  Returns (normal, anomalous) lists of
    ("col", r, vec) for vec e_r^T and ("row", r, vec) for e_r vec^T; all-zero
    terms are dropped, so a vanishing part is exactly zero.
    """
    M = H.modes
    bath = np.flatnonzero(d)
    other = np.flatnonzero(d == 0)
    i, j = np.nonzero(H.data[np.ix_(bath, bath)])
    if np.any(d[bath[i]] != d[bath[j]]):
        raise ValueError(
            "[H_bath, H] couples bath modes to each other; fold intra-bath "
            "couplings into the bath levels first (apply_internal_couplings)"
        )
    touched = other[
        H.data[np.ix_(bath, other)].any(axis=0) | H.data[np.ix_(other, bath)].any(axis=1)
    ]
    particle = np.arange(2 * M) < M
    normal, anomalous = [], []
    for r in touched:
        same = particle == (r < M)
        for kind, vec in (("col", d * H.data[:, r]), ("row", -d * H.data[r, :])):
            for mask, out in ((same, normal), (~same, anomalous)):
                part = np.where(mask, vec, 0)
                if part.any():
                    out.append((kind, int(r), part))
    return normal, anomalous


def _lowrank_B(prop: Propagator, terms) -> np.ndarray:
    """B = chi~ * (U^dag C U)^T for a sum of rank-1 terms of C.

    The k terms give (U^dag C U)^T = L R with L = [b_1 ... b_k] (2M x k) and
    R = [a_1 ... a_k]^T (k x 2M): one product, then one in-place multiply.
    """
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


def heat_current(
    prop: Propagator, H: NambuMatrix, H_bath: NambuMatrix, times
) -> CurrentTrace:
    """Heat current into the bath, -(1/2i) tr(chi(t) [H_bath, H]).

    H_bath must be diagonal.  The commutator is then assumed to live on the
    rows and columns of the few non-bath modes that H couples to the bath
    (see ``_commutator_terms``): true for the valve once intra-bath
    couplings are folded in, and checked, so an H that couples bath levels
    to each other raises ValueError instead of giving a wrong current.  The
    normal part collects the particle-conserving cross-correlators, the
    anomalous part the pairing ones.  Each part is contracted over the time
    grid at O(M^2) per point, from M x M blocks when the basis is paired.
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
    normal_terms, anomalous_terms = _commutator_terms(H, d)

    E = prop.basis.eigenvalues
    if prop.basis.paired:
        # E = [-s, s[::-1]]: the negative half fixes every phase
        phases, contract = _phase_parts(E[:M], times), _contract_paired
    else:
        phases, contract = _phase_parts(E, times), _contract

    def series(terms):
        if not terms:
            return np.zeros_like(times)
        vals = contract(_lowrank_B(prop, terms), phases)
        # tr(chi * commutator) is purely imaginary; the real residual is noise
        residual = np.abs(vals.real).max(initial=0.0)
        scale = max(np.abs(vals.imag).max(initial=0.0), 1.0)
        if residual > SPECTRAL_TOL * scale * 100:
            raise ValueError(f"current has spurious real trace component {residual:.3e}")
        return -0.5 * vals.imag

    # one 2M x 2M B alive at a time
    normal = series(normal_terms)
    anomalous = series(anomalous_terms)
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
