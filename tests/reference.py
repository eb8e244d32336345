"""The dense 2M x 2M route: the reference the tests hold the arrow engine to.

A quadratic operator is stored as the 2M x 2M matrix O acting on the mode
vector A = (a_1, ..., a_M, a_1^dag, ..., a_M^dag), with block structure

    O = [[ h,      Delta ],
         [ -Delta*, -h^T ]],

where h is the Hermitian particle block and Delta the antisymmetric pairing
block.  The operator itself is (1/2) A^dag O A + const_offset.  All
observables follow from the single-particle correlation matrix
chi_ij = <A_i A_j^dag>, evolved as chi(t) = e^{-iHt} chi(0) e^{iHt} in the
eigenbasis of the 2M x 2M Hermitian ``eigh`` of H.

This route stays independent of the engine: it builds a dense H and calls
``np.linalg.eigh``, never ``nambu.arrow_propagator``.  Only ``factors`` and
``dense`` convert an ``ArrowPropagator``, the solver's output, into its form:
``factors`` is the one place that writes its P, Q and X down as M x M
arrays.  ``secular_roots`` is LAPACK's ``dlasd4``, the reference for the
engine's numpy secular solver.
"""

from dataclasses import dataclass

import numpy as np

from heatvalve.evolution import CurrentTrace, _check_sample_count, _in_window
from heatvalve.nambu import SPECTRAL_TOL, ArrowPropagator
from heatvalve.valve import (
    BathRealization, ValveConfig, bath_levels, hamiltonian_blocks, thermal_occupations,
)

# construction-time structural tolerance of the dense operators
STRUCT_TOL = 1e-12


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
    -eigenvalues[2M - 1 - j].
    """

    modes: int
    eigenvalues: np.ndarray
    transform: np.ndarray


@dataclass(frozen=True)
class Propagator(QuasiparticleBasis):
    """Eigenbasis of the total Hamiltonian plus the rotated initial state."""

    rotated_initial: np.ndarray  # U^dag chi(0) U


def build_nambu(
    particle_block: np.ndarray,
    anomalous_block: np.ndarray | None = None,
) -> NambuMatrix:
    """Assemble a NambuMatrix from the M x M particle and pairing blocks.

    The pairing block is antisymmetrized internally (its symmetric part is
    the zero operator).  The additive constant is tr(h)/2, which makes
    (1/2) A^dag O A + const the normal-ordered operator.
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
    return NambuMatrix(modes=M, data=data, const_offset=0.5 * float(np.real(np.trace(h))))


def diagonalize(H: NambuMatrix) -> QuasiparticleBasis:
    """Eigendecomposition by the 2M x 2M Hermitian eigh, eigenvalues ascending.

    The particle-hole pairing of the spectrum (every eigenvalue comes with
    its negative) is verified to SPECTRAL_TOL, so construction bugs raise
    ValueError here rather than propagating, and then made exact: the
    basis stores (E - E[::-1]) / 2.
    """
    try:
        evals, U = np.linalg.eigh(H.data)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"eigensolver failed on {2 * H.modes}x{2 * H.modes} Nambu matrix: {exc}"
        ) from exc
    scale = max(np.abs(evals).max(), 1.0)
    pairing = np.abs(evals + evals[::-1]).max() / scale
    if not pairing <= SPECTRAL_TOL:  # NaN included
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


def make_propagator(H: NambuMatrix, chi0: CorrelationMatrix) -> Propagator:
    """Eigenbasis of a dense H (``diagonalize``) and U^dag chi(0) U."""
    if H.modes != chi0.modes:
        raise ValueError(f"mode mismatch: H M={H.modes}, chi0 M={chi0.modes}")
    basis = diagonalize(H)
    U = basis.transform
    return Propagator(modes=H.modes, eigenvalues=basis.eigenvalues, transform=U,
                      rotated_initial=U.conj().T @ chi0.data @ U)


def factors(prop: ArrowPropagator, rows: int | None = None):
    """P, Q and X of an arrow realization, assembled from its blocks of ``rows`` rows.

    The roots' rows come from ``prop.cauchy`` (Q^T = (V signed - e_c^T) / |u|,
    P^T = V / |v| or flip Q^T under the RWA) and ``prop.lowner``
    (X^T = alpha (L + r) beta, ``state_scales``), each block elementwise, so
    any ``rows`` gives the same bits.  A deflated mode j is its own pole: its
    rows of P^T and Q^T are flip_j and sign_j at mode perm_j, and
    X_jj = e_j sign_j flip_j.
    The columns of P and Q are the modes, in mode order; the singular values
    keep the solver's order.  ``rows`` defaults to all of them at once.
    """
    M, k = prop.arrow.modes, prop.roots
    rows = rows or k
    alpha, beta, r = prop.state_scales()
    sign = prop.sign
    PT, QT, XT = np.zeros((M, M)), np.zeros((M, M)), np.zeros((M, M))
    for i0 in range(0, k, rows):
        i1 = min(i0 + rows, k)
        V = prop.cauchy(i0, i1)
        U = V * prop.signed[:k]
        U[:, 0] = -1.0
        U *= (1 / prop.norm_u[i0:i1])[:, None]
        QT[i0:i1, :k] = U
        rwa = prop.arrow.rwa
        PT[i0:i1, :k] = U * prop.flip[i0:i1, None] if rwa else V / prop.norm_v[i0:i1, None]
        L = prop.lowner(i0, i1)
        L += r[i0:i1, None]
        L *= alpha[i0:i1, None]
        XT[i0:i1, :k] = L * beta
    d = np.arange(k, M)
    QT[d, d], PT[d, d] = sign[k:], prop.flip[k:]
    XT[d, d] = (prop.e * sign * prop.flip)[k:]
    # columns: sorted poles -> modes
    P, Q = np.empty((M, M)), np.empty((M, M))
    P[prop.perm], Q[prop.perm] = PT.T, QT.T
    return P, Q, XT.T


def dense(prop: ArrowPropagator) -> Propagator:
    """An arrow realization as a general 2M x 2M ``Propagator``.

    The eigenvectors of [[0, K^T], [K, 0]] are [q; +-p]/sqrt(2) with
    energies +-s; through W they give U = [[lo, hi J], [hi, lo J]] with
    lo = (Q - P)/2, hi = (Q + P)/2 and J reversing column order, for the
    spectrum [-s, s[::-1]].  U^T chi(0) U has blocks 1/2 - (X + X^T)/4
    (negative energies), 1/2 + (X + X^T)/4 (positive) and (X - X^T)/4
    between them, the positive side in reversed order.  The factors are
    sorted by descending s first, so the spectrum ascends.
    """
    order = np.argsort(-prop.s, kind="stable")
    P, Q, X = factors(prop)
    s, P, Q = prop.s[order], P[:, order], Q[:, order]
    X = X[np.ix_(order, order)]
    lo = (Q - P) / 2
    hi = (Q + P) / 2
    U = np.block([[lo, hi[:, ::-1]], [hi, lo[:, ::-1]]])
    S = (X + X.T) / 4
    A = (X - X.T) / 4
    rotated = np.block([[-S, A[:, ::-1]], [A.T[::-1, :], S[::-1, ::-1]]])
    rotated[np.diag_indices(2 * prop.arrow.modes)] += 0.5
    return Propagator(modes=prop.arrow.modes, eigenvalues=np.concatenate([-s, s[::-1]]),
                      transform=U, rotated_initial=rotated)


def evolve(prop: Propagator, t: float) -> CorrelationMatrix:
    """chi(t) by unitary conjugation; negative t is time reversal."""
    U = prop.transform
    z = np.exp(-1j * prop.eigenvalues * t)
    rotated_t = (z[:, None] * prop.rotated_initial) * z.conj()[None, :]
    data = U @ rotated_t @ U.conj().T
    return CorrelationMatrix(modes=prop.modes, data=data)


def expectation_series(prop: Propagator, O: NambuMatrix, times) -> np.ndarray:
    """<O>(t) = -(1/2) Re tr(O chi(t)) + const_offset over a time grid.

    tr(O chi(t)) = sum_jk B_jk z_j(t) conj(z_k(t)) with z_j = exp(-i E_j t)
    and B = (U^dag chi(0) U) * (U^dag O U)^T.
    """
    times = np.asarray(times, dtype=float)
    if O.modes != prop.modes:
        raise ValueError(f"mode mismatch: O M={O.modes}, propagator M={prop.modes}")
    U = prop.transform
    B = prop.rotated_initial * (U.conj().T @ O.data @ U).T
    z = np.exp(-1j * np.multiply.outer(prop.eigenvalues, times))
    vals = np.einsum("jt,jt->t", z, B @ z.conj())
    return -0.5 * vals.real + O.const_offset


def rate_series(prop: Propagator, O: NambuMatrix, H: NambuMatrix, times) -> np.ndarray:
    """d<O>/dt = -(1/2i) tr(chi(t) [O, H]) over a time grid, by ``expectation_series``.

    -(1/2i) tr(chi C) = -(1/2) tr((-iC) chi), and -iC is Hermitian for C = [O, H].
    """
    C = O.data @ H.data - H.data @ O.data
    return expectation_series(prop, NambuMatrix(modes=O.modes, data=-1j * C), times)


def steady_state_estimate(trace: CurrentTrace, window) -> tuple[float, float]:
    """Mean and standard deviation of the total current inside a time window."""
    mask = _in_window(trace.times, window)
    _check_sample_count(int(mask.sum()), window)
    vals = trace.total[mask]
    return float(vals.mean()), float(vals.std())


def build_hamiltonian(config: ValveConfig, bath: BathRealization) -> NambuMatrix:
    """Total valve Hamiltonian in Nambu form, from ``valve.hamiltonian_blocks``."""
    return build_nambu(*hamiltonian_blocks(config, bath))


def bath_hamiltonian(config: ValveConfig, bath: BathRealization, which_bath: int) -> NambuMatrix:
    """Diagonal Nambu matrix of one bath's free Hamiltonian."""
    return build_nambu(np.diag(bath_levels(config, bath, which_bath)))


def initial_correlation(config: ValveConfig, bath: BathRealization) -> CorrelationMatrix:
    """Diagonal chi(0) of the thermal initial state, as a dense 2M x 2M matrix."""
    occ = thermal_occupations(config, bath)
    return CorrelationMatrix(modes=config.modes, data=np.diag(np.concatenate([1 - occ, occ])))


def secular_roots(ds, zn, rho):
    """LAPACK ``dlasd4`` root by root: s and D2_ij = ds_j^2 - s_i^2, as ``nambu._secular_roots``."""
    from scipy.linalg import lapack

    k = len(ds)
    sig, D2 = np.empty(k), np.empty((k, k))
    for i in range(k):
        delta, sig[i], work, info = lapack.dlasd4(i, ds, zn, rho)
        if info != 0:
            raise np.linalg.LinAlgError(f"dlasd4 failed on root {i}: info {info}")
        np.multiply(delta, work, out=D2[i])
    if k == 1:  # dlasd4 returns delta = work = 1 for a single root
        D2[0, 0] = -sig[0] ** 2
    return sig, D2


def random_nambu(rng, modes, pairing=True):
    h = rng.normal(size=(modes, modes)) + 1j * rng.normal(size=(modes, modes))
    h = (h + h.conj().T) / 2
    delta = None
    if pairing:
        delta = rng.normal(size=(modes, modes)) + 1j * rng.normal(size=(modes, modes))
    return build_nambu(h, delta)


def random_correlation(rng, modes):
    """Valid chi: random occupations in a random quasiparticle basis."""
    H = random_nambu(rng, modes)
    U = diagonalize(H).transform
    f = rng.uniform(0, 1, size=modes)
    occ = np.concatenate([1 - f, f[::-1]])  # particle-hole consistent pairing
    return CorrelationMatrix(modes=modes, data=U @ np.diag(occ) @ U.conj().T)


def block_parts(H: NambuMatrix) -> tuple[NambuMatrix, NambuMatrix]:
    """H with its pairing blocks zeroed, and H with only its pairing blocks."""
    M = H.modes
    normal = H.data.copy()
    normal[:M, M:] = 0.0
    normal[M:, :M] = 0.0
    return (NambuMatrix(modes=M, data=normal),
            NambuMatrix(modes=M, data=H.data - normal))


def dense_current(prop, H, Hb, times):
    """(normal, anomalous) from chi(t) rebuilt densely at every time."""
    Hn, Ha = block_parts(H)
    chis = [evolve(prop, t) for t in times]
    return (np.array([observable_rate(Hb, Hn, chi) for chi in chis]),
            np.array([observable_rate(Hb, Ha, chi) for chi in chis]))
