"""Exact time evolution of the correlation matrix and heat-current traces.

The Hamiltonian is time independent, so chi(t) = e^{-iHt} chi(0) e^{iHt}.
A valve realization runs from its arrow alone, in the Majorana form
(``arrow_propagator``).  With W = [[1, 1], [1, -1]]/sqrt(2), H becomes
[[0, K^T], [K, 0]] for the arrow's K = h + Delta, and the thermal product
state with mode occupations n becomes [[1, e], [e, 1]]/2,
e = diag(1 - 2n).  The M x M SVD K = P diag(s) Q^T and X = Q^T e P of
``nambu.arrow_svd`` (O(M^2) with pairing and under the RWA alike) are
then the whole realization (``ArrowPropagator``): the evolution turns the
pair of singular bases through cos(st) and sin(st).  Heat currents
d<H_bath>/dt = -(1/2i) tr(chi(t) [H_bath, H]) take H_bath as the vector
of its mode energies (``valve.bath_levels``).  The bath couples only to
the central mode, so the commutator is written down from the central
column, and each part of the current is an M x M bilinear form in cos(st)
and sin(st) (``heat_current``).  The mean over a window's samples needs
no time grid (``window_mean_current``): each pair of singular values is
weighted by the window's Dirichlet kernel, over one triangle of pairs, a
chunk of rows at a time.

``make_propagator``, ``evolve`` and ``expectation_series`` are the general
route, the 2M x 2M eigh of a dense H and the dense rotation of any chi(0),
kept as the reference; ``ArrowPropagator.dense`` puts an arrow realization
into that form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nambu import (
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

    @property
    def modes(self) -> int:
        return self.arrow.modes

    def dense(self) -> Propagator:
        """The same realization as a general 2M x 2M ``Propagator``.

        The eigenvectors of [[0, K^T], [K, 0]] are [q; +-p]/sqrt(2) with
        energies +-s; through W they give U = [[lo, hi J], [hi, lo J]] with
        lo = (Q - P)/2, hi = (Q + P)/2 and J reversing column order, for the
        spectrum [-s, s[::-1]].  U^T chi(0) U has blocks 1/2 - (X + X^T)/4
        (negative energies), 1/2 + (X + X^T)/4 (positive) and (X - X^T)/4
        between them, the positive side in reversed order.  The factors are
        sorted by descending s first, so the spectrum ascends.
        """
        order = np.argsort(-self.s, kind="stable")
        s, P, Q = self.s[order], self.P[:, order], self.Q[:, order]
        X = self.X[np.ix_(order, order)]
        lo = (Q - P) / 2
        hi = (Q + P) / 2
        U = np.block([[lo, hi[:, ::-1]], [hi, lo[:, ::-1]]])
        S = (X + X.T) / 4
        A = (X - X.T) / 4
        rotated = np.block([[-S, A[:, ::-1]], [A.T[::-1, :], S[::-1, ::-1]]])
        rotated[np.diag_indices(2 * self.modes)] += 0.5
        basis = QuasiparticleBasis(
            modes=self.modes, eigenvalues=np.concatenate([-s, s[::-1]]), transform=U
        )
        return Propagator(basis=basis, rotated_initial=rotated)


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
        if not gap <= 1e-10:  # NaN included
            raise ValueError(f"total != normal + anomalous, max gap {gap:.3e}")


def arrow_propagator(arrow: Arrow, occupations) -> ArrowPropagator:
    """An arrow's realization in the product state with mode occupations n.

    ``nambu.arrow_svd`` gives the M x M SVD and X = Q^T diag(1 - 2n) P
    together, in O(M^2) for every arrow; no 2M x 2M array.
    """
    occupations = np.asarray(occupations, dtype=float)
    if occupations.shape != (arrow.modes,):
        raise ValueError(
            f"occupations must have shape ({arrow.modes},), got {occupations.shape}"
        )
    s, P, Q, X = arrow_svd(arrow, 1 - 2 * occupations)
    return ArrowPropagator(arrow=arrow, s=s, P=P, Q=Q, X=X)


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


def expectation_series(prop: Propagator, O: NambuMatrix, times) -> np.ndarray:
    """<O>(t) = -(1/2) Re tr(O chi(t)) + const_offset over a time grid.

    tr(O chi(t)) = sum_jk B_jk z_j(t) conj(z_k(t)) with z_j = exp(-i E_j t)
    and B = (U^dag chi(0) U) * (U^dag O U)^T.
    """
    times = np.asarray(times, dtype=float)
    if O.modes != prop.modes:
        raise ValueError(f"mode mismatch: O M={O.modes}, propagator M={prop.modes}")
    U = prop.basis.transform
    B = prop.rotated_initial * (U.conj().T @ O.data @ U).T
    z = np.exp(-1j * np.multiply.outer(prop.basis.eigenvalues, times))
    vals = np.einsum("jt,jt->t", z, B @ z.conj())
    return -0.5 * vals.real + O.const_offset


def _phase_parts(s: np.ndarray, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos(s t) and sin(s t) as (M, T) arrays; the sine overwrites the argument."""
    arg = np.multiply.outer(s, times)
    cos = np.cos(arg)
    return cos, np.sin(arg, out=arg)


def _checked_levels(prop: ArrowPropagator, levels) -> np.ndarray:
    M = prop.modes
    levels = np.asarray(levels)
    if levels.shape != (M,):
        raise ValueError(f"bath levels must have shape ({M},), got {levels.shape}")
    return levels


def _antisym(a: np.ndarray, b: np.ndarray, rows=slice(None), cols=slice(None)) -> np.ndarray:
    """The block [rows, cols] of N = b a^T - a b^T, antisymmetric and exactly 0 on its diagonal."""
    N = np.multiply.outer(b[rows], a[cols])
    N -= np.multiply.outer(a[rows], b[cols])
    return N


def _bilinear(cos: np.ndarray, G: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """-(1/2) cos(st)^T G sin(st) at every time, one (M, T) product alive."""
    return -0.5 * np.einsum("jt,jt->t", cos, G @ sin)


def heat_current(prop: ArrowPropagator, levels, times) -> CurrentTrace:
    """Heat current into the bath, -(1/2i) tr(chi(t) [H_bath, H]).

    H is the arrow's Hamiltonian, ``levels`` the M mode energies of H_bath,
    zero off the measured bath (``valve.bath_levels``).  In the Majorana
    form C = [H_bath, H] is block diagonal: its normal part is diag(n, n),
    its anomalous part diag(n, -n), with n = w e_c^T - e_c w^T and
    w = levels * couplings (the bath couples to the centre c alone).  The
    state turns through cos(st) and sin(st) acting on X, so the normal part
    of the current is f_Q + f_P and the anomalous part f_Q - f_P, where
    f_Q(t) = -(1/2) cos(st)^T G_Q sin(st) with G_Q = X * (b a^T - a b^T),
    a = Q^T w and b = Q[c, :], and f_P is the same with X^T and P: one M x M
    product per part per time point.  Under the RWA P = Q sign(l) makes
    G_P = G_Q, so the normal part is 2 f_Q (no G_P is formed) and the
    anomalous part exactly zero; so is a current with w = 0.
    """
    times = np.asarray(times, dtype=float)
    arrow = prop.arrow
    levels = _checked_levels(prop, levels)
    w = levels * arrow.couplings
    zeros = np.zeros_like(times)
    if not w.any():
        return CurrentTrace(times=times, total=zeros, normal=zeros, anomalous=zeros)
    cos, sin = _phase_parts(prop.s, times)
    G_Q = _antisym(w @ prop.Q, prop.Q[arrow.center])
    G_Q *= prop.X
    f_Q = _bilinear(cos, G_Q, sin)
    if arrow.rwa:
        normal, anomalous = 2 * f_Q, zeros
    else:
        G_P = _antisym(w @ prop.P, prop.P[arrow.center])
        G_P *= prop.X.T
        f_P = _bilinear(cos, G_P, sin)
        normal, anomalous = f_Q + f_P, f_Q - f_P
    return CurrentTrace(
        times=times, total=normal + anomalous, normal=normal, anomalous=anomalous
    )


MIN_WINDOW_SAMPLES = 10
# Rows of the triangle that window_mean_current handles at once: its working
# set is a few (rows x M) arrays instead of the whole M x M form.  64 rows
# ran faster than 128 at M = 2401 and no slower at M = 901 (one thread).
MEAN_CHUNK_ROWS = 64


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
    faster than its sin (numpy 2.4, x86-64).  Overwrites w; every step is
    in place, on the chunk's few (rows x M) buffers.
    """
    # rho = [2a / (1 + a^2)] / [T 2b / (1 + b^2)]
    a = np.multiply(w, samples * half_step / 2)
    np.tan(a, out=a)
    b = np.multiply(w, half_step / 2, out=w)
    np.tan(b, out=b)
    rho = np.multiply(b, b)
    rho += 1
    rho *= a  # a (1 + b^2)
    resolved = b != 0
    b *= samples
    a *= a
    a += 1
    a *= b  # T b (1 + a^2)
    np.divide(rho, a, out=rho, where=resolved)
    rho[~resolved] = 1.0
    return rho


def window_mean_current(prop: ArrowPropagator, levels, window, time_step) -> float:
    """Mean over the samples of ``window_times`` of the ``heat_current`` total.

    The total is 2 f_Q for every arrow (``heat_current``), so it is
    -(1/2) cos(st)^T G sin(st) for G = 2 G_Q.  Over T equally spaced
    samples centred on tau, the mean of cos(s_j t) sin(s_k t) is
    [rho(s_j + s_k) sin((s_j + s_k) tau) + rho(s_k - s_j) sin((s_k - s_j) tau)] / 2
    (``_window_kernel``): no time grid, and a long window costs what a short
    one does.  G is zero on its diagonal and rho is even, so the sum runs
    over j < k alone, the sum term weighted by G_jk + G_kj and the
    difference term by G_jk - G_kj; with G = X * N for the antisymmetric
    N = b a^T - a b^T, these are (X_jk -+ X_kj) N_jk.  The triangle is taken
    a chunk of rows at a time.

    The mean is exact only for frequencies the samples resolve: a time step
    with s_max dt >= pi/2 (the Nyquist bound of the highest frequency
    2 s_max) is refused.
    """
    M = prop.modes
    levels = _checked_levels(prop, levels)
    times = window_times(window, time_step)
    _check_sample_count(len(times), window)
    s = prop.s
    s_max = float(s.max(initial=0.0))
    if s_max * time_step >= np.pi / 2:
        raise ValueError(
            f"time_step dt={time_step} aliases the window mean: s_max*dt = "
            f"{s_max * time_step:.4g} >= pi/2 for the highest quasiparticle energy "
            f"s_max={s_max:.6g}; need dt < pi/(2 s_max) = {np.pi / (2 * s_max):.6g}"
        )
    w = levels * prop.arrow.couplings
    if not w.any():
        return 0.0  # G is exactly zero
    X = prop.X
    a, b = w @ prop.Q, prop.Q[prop.arrow.center]
    # centre and spacing of the samples themselves: np.arange steps by
    # fl(t0 + dt) - t0, which on [200, 400] at dt 0.05 puts the last
    # sample 4.5e-11 from t0 + (T - 1) dt
    T = len(times)
    tau = (times[0] + times[-1]) / 2
    h = (times[-1] - times[0]) / (2 * (T - 1))
    cos, sin = np.cos(s * tau), np.sin(s * tau)
    total = 0.0
    for j0 in range(0, M, MEAN_CHUNK_ROWS):
        j1 = min(j0 + MEAN_CHUNK_ROWS, M)
        rows, cols = slice(j0, j1), slice(j0, M)
        sym = _antisym(a, b, rows, cols)
        anti = sym.copy()
        Xt = X[cols, rows].T
        pair = np.subtract(X[rows, cols], Xt)
        sym *= pair
        np.add(X[rows, cols], Xt, out=pair)
        anti *= pair
        del pair
        # only k > j inside the diagonal block (both are 0 at k = j)
        lower = np.tril_indices(j1 - j0, -1)
        sym[lower] = 0.0
        anti[lower] = 0.0
        # sin((s_j + s_k) tau) = sin_j cos_k + cos_j sin_k: two matrix-vector
        # products; their rounding is damped by rho(s_j + s_k) unless both
        # are small, where they are accurate
        plus = _window_kernel(s[rows, None] + s[cols], T, h)
        plus *= sym
        del sym
        total += sin[rows] @ (plus @ cos[cols]) + cos[rows] @ (plus @ sin[cols])
        # sin((s_k - s_j) tau) from the difference itself: by the addition
        # theorem a near-degenerate pair, rho ~ 1, would cancel O(1) terms
        diff = s[cols] - s[rows, None]
        minus = np.multiply(diff, tau)
        np.sin(minus, out=minus)
        minus *= _window_kernel(diff, T, h)
        minus *= anti
        total += minus.sum()
    return float(-0.5 * total)
