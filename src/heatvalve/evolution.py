"""Exact time evolution of the correlation matrix and heat-current traces.

The Hamiltonian is time independent, so chi(t) = e^{-iHt} chi(0) e^{iHt}
is evaluated by phase rotation in the eigenbasis: one eigenbasis and one
rotation of chi(0) up front, then O(M^2) work per time point.  A valve
realization runs from its arrow alone (``arrow_propagator``): the M x M SVD
K = P diag(s) Q^T of ``nambu.arrow_svd`` gives the eigenbasis, O(M^2) for
the broken arrow, and the thermal product state, given as its occupation
vector, is rotated into it from P and Q with one M^3 product.
``make_propagator`` is the general route, the 2M x 2M eigh of a dense H and
the dense rotation of any chi(0).  Heat currents
d<H_bath>/dt = -(1/2i) tr(chi(t) [H_bath, H]) are contracted in the
eigenbasis without rebuilding chi(t); H_bath enters as the vector of its
mode energies (``valve.bath_levels``).  In the arrow the bath couples only
to the central mode, so the commutator lives on the rows and columns of the
central particle and hole: one product of a 2M x 4 and a 4 x 2M matrix,
written down from the central column.  Every basis carries the spectrum
E = [-s, s[::-1]], so every contraction runs over M x M blocks on the
phases of its negative half.  The mean of the current over a window's
samples needs no time grid (``window_mean_current``): each pair of
energies is weighted by the window's Dirichlet kernel, in row chunks of
the contracted matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nambu import (
    SPECTRAL_TOL,
    Arrow,
    CorrelationMatrix,
    NambuMatrix,
    QuasiparticleBasis,
    arrow_svd,
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


def arrow_propagator(arrow: Arrow, occupations) -> Propagator:
    """Eigenbasis and rotated thermal state of an arrow, with no 2M x 2M input.

    W = [[1, 1], [1, -1]]/sqrt(2) maps H to the Majorana form
    [[0, K^T], [K, 0]], whose eigenvectors for K = P diag(s) Q^T are
    [q; +-p]/sqrt(2) with energies +-s: U = [[lo, hi J], [hi, lo J]] with
    lo = (Q - P)/2, hi = (Q + P)/2 and J reversing column order.  The
    product state with mode occupations n, chi(0) = diag(1 - n, n), then
    rotates through X = Q^T diag(1 - 2n) P alone: U^T chi(0) U has blocks
    1/2 - (X + X^T)/4 (negative energies), 1/2 + (X + X^T)/4 (positive) and
    (X - X^T)/4 between them, the positive side in reversed order.  One
    M^3 product instead of one (2M)^3 product.
    """
    occupations = np.asarray(occupations, dtype=float)
    if occupations.shape != (arrow.modes,):
        raise ValueError(
            f"occupations must have shape ({arrow.modes},), got {occupations.shape}"
        )
    s, P, Q = arrow_svd(arrow)
    X = (Q.T * (1 - 2 * occupations)) @ P
    lo = (Q - P) / 2
    hi = (Q + P) / 2
    del P, Q
    U = np.block([[lo, hi[:, ::-1]], [hi, lo[:, ::-1]]])
    del lo, hi
    S = X + X.T
    A = X - X.T
    del X
    S /= 4
    A /= 4
    rotated = np.block([[-S, A[:, ::-1]], [A.T[::-1, :], S[::-1, ::-1]]])
    rotated[np.diag_indices(2 * arrow.modes)] += 0.5
    basis = QuasiparticleBasis(
        modes=arrow.modes, eigenvalues=np.concatenate([-s, s[::-1]]), transform=U
    )
    return Propagator(basis=basis, rotated_initial=rotated)


def make_propagator(H: NambuMatrix, chi0: CorrelationMatrix) -> Propagator:
    """Eigenbasis of a dense H (``nambu.diagonalize``) and U^dag chi(0) U."""
    if H.modes != chi0.modes:
        raise ValueError(f"mode mismatch: H M={H.modes}, chi0 M={chi0.modes}")
    basis = diagonalize(H)
    U = basis.transform
    return Propagator(basis=basis, rotated_initial=U.conj().T @ chi0.data @ U)


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
    """sum_{jk} B_jk z_j(t) conj(z_k(t)) for a spectrum E = [-s, s[::-1]].

    ``phases`` are the parts c = cos(st) and S = sin(st) of the negative
    half E[:M]; the phases are c + iS there and c - iS on the reversed
    positive side.  Indexing the four blocks of B by singular value
    (B12 = B[:M, M:][:, ::-1] and so on) gives
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
    return _contract(B, _phase_parts(prop.basis.eigenvalues[: prop.modes], times))


def expectation_series(prop: Propagator, O: NambuMatrix, times) -> np.ndarray:
    """<O>(t) = -(1/2) Re tr(O chi(t)) + const_offset over a time grid."""
    times = np.asarray(times, dtype=float)
    if O.modes != prop.modes:
        raise ValueError(f"mode mismatch: O M={O.modes}, propagator M={prop.modes}")
    vals = _trace_series(prop, O.data, times)
    return -0.5 * vals.real + O.const_offset


def _commutator_factors(arrow: Arrow, levels: np.ndarray):
    """Factors of C = [diag(d), H], C_ij = (d_i - d_j) H_ij, by part.

    d = [levels, -levels] vanishes on the central particle and hole
    r = (c, c + M), and H couples every other mode only to them, so
    C = col E_r^T + E_r row with E_r = I[:, r], col = C[:, r] and
    row = C[r, :] = -col^T.  With w = levels * g the columns are
    H[:, c] = [g, -g] and H[:, c + M] = [g, -g] (pairing halves zero under
    the RWA): the normal part, in r's own particle or hole block, has
    col = [[w, 0], [0, w]], and the anomalous part col = [[0, w], [w, 0]]
    with pairing, zero without.  Returns r and the (col, row) pairs.
    """
    M, c = arrow.modes, arrow.center
    w = levels * arrow.couplings
    normal = np.zeros((2 * M, 2))
    normal[:M, 0] = normal[M:, 1] = w
    anomalous = np.zeros((2 * M, 2))
    if not arrow.rwa:
        anomalous[M:, 0] = anomalous[:M, 1] = w
    return [c, c + M], (normal, -normal.T), (anomalous, -anomalous.T)


def _lowrank_factors(prop: Propagator, r, col, row) -> tuple[np.ndarray, np.ndarray]:
    """Factors of (U^dag C U)^T = L R for C = col E_r^T + E_r row.

    L = [U[r, :]^T, (row U)^T] (2M x 2k) and R = [(U^dag col)^T; conj(U[r, :])]
    (2k x 2M); the contracted matrix is B = chi~ * (L R), built whole by
    ``heat_current`` and a chunk of rows at a time by ``window_mean_current``.
    """
    U = prop.basis.transform
    L = np.concatenate(
        [U[r, :].T, (row @ U).T], axis=1, dtype=np.result_type(U, row, prop.rotated_initial)
    )
    R = np.concatenate([col.T @ U.conj(), U[r, :].conj()])
    return L, R


def _checked_levels(prop: Propagator, arrow: Arrow, levels) -> np.ndarray:
    M = prop.modes
    if arrow.modes != M:
        raise ValueError(f"mode mismatch: propagator M={M}, arrow M={arrow.modes}")
    levels = np.asarray(levels)
    if levels.shape != (M,):
        raise ValueError(f"bath levels must have shape ({M},), got {levels.shape}")
    return levels


def _current(vals: np.ndarray) -> np.ndarray:
    """-(1/2) Im of tr(chi * commutator) values, refusing a spurious real part."""
    # tr(chi * commutator) is purely imaginary; the real residual is noise
    residual = np.abs(vals.real).max(initial=0.0)
    scale = max(np.abs(vals.imag).max(initial=0.0), 1.0)
    if residual > SPECTRAL_TOL * scale * 100:
        raise ValueError(f"current has spurious real trace component {residual:.3e}")
    return -0.5 * vals.imag


def heat_current(prop: Propagator, arrow: Arrow, levels, times) -> CurrentTrace:
    """Heat current into the bath, -(1/2i) tr(chi(t) [H_bath, H]).

    H is the arrow's Hamiltonian, ``levels`` the M mode energies of H_bath,
    zero off the measured bath (``valve.bath_levels``); in Nambu form
    H_bath = diag(levels, -levels).  The commutator is written down from the
    arrow's central column (``_commutator_factors``).  The normal part
    collects the particle-conserving cross-correlators, the anomalous part
    the pairing ones; a part with no entries (RWA anomalous, gamma = 0) is
    exactly zero.  Each part is contracted over the time grid from M x M
    blocks, at O(M^2) per point.
    """
    times = np.asarray(times, dtype=float)
    M = prop.modes
    levels = _checked_levels(prop, arrow, levels)
    r, normal, anomalous = _commutator_factors(arrow, levels)
    phases = _phase_parts(prop.basis.eigenvalues[:M], times)

    def series(col, row):
        if not col.any():
            # B is exactly zero: skip the 2M x 2M work
            return np.zeros_like(times)
        L, R = _lowrank_factors(prop, r, col, row)
        B = L @ R
        B *= prop.rotated_initial
        return _current(_contract(B, phases))

    # one 2M x 2M B alive at a time
    normal = series(*normal)
    anomalous = series(*anomalous)
    return CurrentTrace(
        times=times, total=normal + anomalous, normal=normal, anomalous=anomalous
    )

MIN_WINDOW_SAMPLES = 10
# Rows of each M x M block that window_mean_current handles at once: its
# working set is a few (rows x 2M) arrays instead of the 2M x 2M B.
MEAN_CHUNK_ROWS = 128


def _in_window(times: np.ndarray, window) -> np.ndarray:
    return (times >= window[0]) & (times <= window[1])


def window_times(window, time_step) -> np.ndarray:
    """The time grid of a steady-state window: t_lo, t_lo + dt, ... inside it."""
    times = np.arange(window[0], window[1] + time_step / 2, time_step)
    return times[_in_window(times, window)]


def window_sample_count(window, time_step) -> int:
    """Samples of ``window_times`` that ``steady_state_estimate`` averages over."""
    return len(window_times(window, time_step))


def _check_sample_count(n: int, window) -> None:
    lo, hi = window
    if n == 0:
        raise ValueError(f"no trace samples inside window [{lo}, {hi}]")
    if n < MIN_WINDOW_SAMPLES:
        raise ValueError(
            f"only {n} samples inside window [{lo}, {hi}]; need >= {MIN_WINDOW_SAMPLES}"
        )


def steady_state_estimate(trace: CurrentTrace, window=(20.0, 50.0)) -> tuple[float, float]:
    """Mean and standard deviation of the total current inside a time window."""
    mask = _in_window(trace.times, window)
    _check_sample_count(int(mask.sum()), window)
    vals = trace.total[mask]
    return float(vals.mean()), float(vals.std())


def _window_kernel(w: np.ndarray, samples: int, half_step: float) -> np.ndarray:
    """rho(w) = sin(T w h) / (T sin(w h)), the mean of e^{-iw(t - tau)} over the samples.

    T samples t_n = tau + (2n + 1 - T) h sit symmetrically about their
    centre tau.  Both sines are taken from w itself, so rho keeps its
    relative accuracy as w -> 0, where it is 1.  They go through
    t = tan(x/2), sin x = 2t / (1 + t^2): numpy's tan is several times
    faster than its sin (numpy 2.4, x86-64).
    """
    a = np.tan(w * (samples * half_step / 2))
    b = np.tan(w * (half_step / 2))
    # rho = [2a / (1 + a^2)] / [T 2b / (1 + b^2)]
    num = a * (1 + b * b)
    den = samples * b * (1 + a * a)
    return np.divide(num, den, out=np.ones_like(w), where=b != 0)


def window_mean_current(prop: Propagator, arrow: Arrow, levels, window, time_step) -> float:
    """Mean over the samples of ``window_times`` of the ``heat_current`` total.

    The current is a bilinear form in the rotated state,
    sum_jk B_jk exp(-i (E_j - E_k) t), so its mean over T equally spaced
    samples centred on tau is sum_jk B_jk rho(E_j - E_k) exp(-i (E_j - E_k) tau)
    (``_window_kernel``): no time grid, and a long window costs what a short
    one does.  Normal and anomalous parts share the central rows r, so they
    are summed into one rank-4 commutator.  B is built a chunk of rows of
    its M x M blocks at a time from chi~ and the factors L, R; a block row
    j pairs the rows j and 2M - 1 - j of B, whose energies -s_j and s_j meet
    the columns' at w = s_k - s_j and -(s_j + s_k) (B11, B12) and at
    s_j + s_k and s_j - s_k (B21, B22).

    The mean is exact only for frequencies the samples resolve: a time step
    with s_max dt >= pi/2 (the Nyquist bound of the highest frequency
    2 s_max) is refused.
    """
    M = prop.modes
    levels = _checked_levels(prop, arrow, levels)
    times = window_times(window, time_step)
    _check_sample_count(len(times), window)
    E = prop.basis.eigenvalues
    s_max = float(np.abs(E).max(initial=0.0))
    if s_max * time_step >= np.pi / 2:
        raise ValueError(
            f"time_step dt={time_step} aliases the window mean: s_max*dt = "
            f"{s_max * time_step:.4g} >= pi/2 for the highest quasiparticle energy "
            f"s_max={s_max:.6g}; need dt < pi/(2 s_max) = {np.pi / (2 * s_max):.6g}"
        )
    r, (col_n, row_n), (col_a, row_a) = _commutator_factors(arrow, levels)
    col = col_n + col_a
    if not col.any():
        return 0.0  # B is exactly zero
    L, R = _lowrank_factors(prop, r, col, row_n + row_a)
    chi = prop.rotated_initial
    # centre and spacing of the samples themselves: np.arange steps by
    # fl(t0 + dt) - t0, which on [200, 400] at dt 0.05 puts the last
    # sample 4.5e-11 from t0 + (T - 1) dt
    T = len(times)
    tau = (times[0] + times[-1]) / 2
    h = (times[-1] - times[0]) / (2 * (T - 1))
    # conj(z) with z = exp(-i E tau): B @ phases = B conj(z) as (real, imag)
    phases = np.stack([np.cos(E * tau), np.sin(E * tau)], axis=1)
    z = phases[:, 0] - 1j * phases[:, 1]
    e = E[:M]
    total = 0j
    for j0 in range(0, M, MEAN_CHUNK_ROWS):
        j1 = min(j0 + MEAN_CHUNK_ROWS, M)
        Ka = _window_kernel(e[j0:j1, None] - e, T, h)  # B11 and B22
        Kb = _window_kernel(e[j0:j1, None] + e, T, h)  # B12 and B21
        # block rows j0..j1-1: rows j of B, then rows 2M - 1 - j in B's order
        for rows, left, right in (
            (slice(j0, j1), Ka, Kb[:, ::-1]),
            (slice(2 * M - j1, 2 * M - j0), Kb[::-1], Ka[::-1, ::-1]),
        ):
            B = L[rows] @ R
            B *= chi[rows]
            B[:, :M] *= left
            B[:, M:] *= right
            Bz = B @ phases
            total += z[rows] @ (Bz[:, 0] + 1j * Bz[:, 1])
    return float(_current(np.array([total]))[0])
