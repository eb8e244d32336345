"""Single-mode heat valve: bath sampling, Hamiltonians, initial state.

Two baths of N fermionic two-level systems each bridge a single central
level of frequency omega0 = 1.  Mode ordering everywhere is
(bath-1 modes, central mode, bath-2 modes), so M = 2N + 1 and the central
index is N.  Couplings of the central level to every bath mode carry both
the particle-conserving hopping and, unless the rotating-wave approximation
is requested, the particle-non-conserving pairing terms.  The engine takes
a realization as its arrow (``build_arrow``) and its initial state as the
occupation vector (``thermal_occupations``); ``build_hamiltonian`` and
``initial_correlation`` give the dense 2M x 2M forms, the references for
the Fock oracle and the tests.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .analytics import occupation
from .nambu import STRUCT_TOL, Arrow, CorrelationMatrix, NambuMatrix, build_nambu


class CouplingDistribution(str, enum.Enum):
    UNIFORM = "uniform"          # i.i.d. uniform on [-gamma/sqrt(N), gamma/sqrt(N)]
    GAUSSIAN = "gaussian"        # i.i.d. zero-mean normal, variance gamma^2/(3N)
    EQUAL = "equal"              # deterministic, all gamma/sqrt(3N)


@dataclass(frozen=True)
class InternalCouplingSpec:
    """Particle-conserving quadratic couplings among each bath's modes.

    Either explicit Hermitian N x N matrices (one per bath) or random
    Hermitian ones: i.i.d. Gaussian entries, Hermitized, with off-diagonal
    standard deviation scale/sqrt(N) so the induced frequency shifts stay of
    order ``scale``.
    """

    matrices: tuple[np.ndarray, np.ndarray] | None = None
    scale: float = 0.1

    def __post_init__(self):
        if self.matrices is not None:
            for m in self.matrices:
                res = np.abs(m - m.conj().T).max() / max(np.abs(m).max(), 1.0)
                if res > STRUCT_TOL:
                    raise ValueError(
                        f"internal coupling matrix not Hermitian: residual {res:.3e}"
                    )

    def realize(self, bath_size: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        if self.matrices is not None:
            for m in self.matrices:
                if m.shape != (bath_size, bath_size):
                    raise ValueError(
                        f"internal coupling matrix shape {m.shape} != ({bath_size}, {bath_size})"
                    )
            return self.matrices
        out = []
        for _ in range(2):
            A = rng.normal(scale=self.scale / np.sqrt(bath_size), size=(bath_size, bath_size))
            out.append((A + A.T) / 2)
        return tuple(out)


@dataclass(frozen=True)
class ValveConfig:
    """Full specification of one valve realization."""

    bath_size: int
    gamma: float
    t_hot: float
    t_cold: float
    coupling_dist: CouplingDistribution = CouplingDistribution.UNIFORM
    rwa: bool = False
    seed: int = 0
    omega0: float = 1.0
    internal_coupling: InternalCouplingSpec | None = None

    def __post_init__(self):
        if self.bath_size < 1:
            raise ValueError(f"bath_size must be >= 1, got {self.bath_size}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if self.t_hot < 0 or self.t_cold < 0:
            raise ValueError("temperatures must be >= 0")
        object.__setattr__(
            self, "coupling_dist", CouplingDistribution(self.coupling_dist)
        )

    @property
    def modes(self) -> int:
        return 2 * self.bath_size + 1

    @property
    def center(self) -> int:
        return self.bath_size

    def bath_slice(self, which_bath: int) -> slice:
        if which_bath == 1:
            return slice(0, self.bath_size)
        if which_bath == 2:
            return slice(self.bath_size + 1, self.modes)
        raise ValueError(f"bath index must be 1 or 2, got {which_bath}")

    def bath_temperature(self, which_bath: int) -> float:
        return {1: self.t_hot, 2: self.t_cold}[which_bath]


@dataclass(frozen=True)
class BathRealization:
    """Sampled level frequencies and real central-level couplings, per bath."""

    frequencies: np.ndarray  # shape (2, N)
    couplings: np.ndarray    # shape (2, N)

    def __post_init__(self):
        if self.frequencies.shape != self.couplings.shape or self.frequencies.ndim != 2:
            raise ValueError("frequencies and couplings must both be (2, N) arrays")
        if np.iscomplexobj(self.couplings):
            raise ValueError(
                "couplings must be real; fold complex phases into the modes "
                "(apply_internal_couplings)"
            )
        self.frequencies.setflags(write=False)
        self.couplings.setflags(write=False)

    @property
    def bath_size(self) -> int:
        return self.frequencies.shape[1]


def sample_bath(config: ValveConfig) -> BathRealization:
    """Draw one bath realization, deterministic given config.seed.

    Frequencies are i.i.d. uniform on [0, 2*omega0].  All three coupling
    distributions share the second moment gamma^2/(3N).
    """
    rng = np.random.default_rng(config.seed)
    N = config.bath_size
    freqs = rng.uniform(0.0, 2 * config.omega0, size=(2, N))
    bound = config.gamma / np.sqrt(N)
    dist = config.coupling_dist
    if dist is CouplingDistribution.UNIFORM:
        g = rng.uniform(-bound, bound, size=(2, N))
    elif dist is CouplingDistribution.GAUSSIAN:
        g = rng.normal(scale=config.gamma / np.sqrt(3 * N), size=(2, N))
    else:
        g = np.full((2, N), config.gamma / np.sqrt(3 * N))
    if config.gamma == 0:
        g = np.zeros((2, N))
    return BathRealization(frequencies=freqs, couplings=g)


def apply_internal_couplings(config: ValveConfig, bath: BathRealization) -> BathRealization:
    """Fold particle-conserving intra-bath couplings into the realization.

    Diagonalizing diag(w_ak) + coupling matrix per bath gives new level
    frequencies (the eigenvalues) and unitarily rotated couplings
    g_aj -> |sum_k conj(U_kj) g_ak|: each new mode's eigenvector phase,
    arbitrary in eigh anyway, is chosen so that its coupling is real and
    non-negative, which keeps a complex coupling matrix on the real valve.
    The couplings' sum of squares is preserved.  Transformed frequencies may
    leave the [0, 2*omega0] band.
    """
    spec = config.internal_coupling
    if spec is None:
        raise ValueError("no internal-coupling spec provided")
    # RNG stream decoupled from sample_bath's by a fixed tag.
    rng = np.random.default_rng([config.seed, 0x1C])
    matrices = spec.realize(config.bath_size, rng)
    new_freqs = np.empty_like(bath.frequencies)
    new_g = np.empty_like(bath.couplings)
    for a in range(2):
        h_bath = np.diag(bath.frequencies[a]) + matrices[a]
        evals, U = np.linalg.eigh(h_bath)
        new_freqs[a] = evals
        new_g[a] = np.abs(U.conj().T @ bath.couplings[a])
    return BathRealization(frequencies=new_freqs, couplings=new_g)


def build_arrow(config: ValveConfig, bath: BathRealization) -> Arrow:
    """The valve's K = h + Delta: bath levels and omega0, central couplings."""
    if bath.bath_size != config.bath_size:
        raise ValueError(
            f"bath realization N={bath.bath_size} != config N={config.bath_size}"
        )
    M = config.modes
    levels = np.empty(M)
    couplings = np.zeros(M)
    for which_bath in (1, 2):
        levels[config.bath_slice(which_bath)] = bath.frequencies[which_bath - 1]
        couplings[config.bath_slice(which_bath)] = bath.couplings[which_bath - 1]
    levels[config.center] = config.omega0
    return Arrow(levels=levels, couplings=couplings, center=config.center, rwa=config.rwa)


def build_hamiltonian(config: ValveConfig, bath: BathRealization) -> NambuMatrix:
    """Total valve Hamiltonian in Nambu form, built from ``build_arrow``.

    The dense 2M x 2M reference for the Fock oracle and the tests; the
    engine itself runs from the arrow.
    """
    arrow = build_arrow(config, bath)
    c, g = arrow.center, arrow.couplings
    h = np.diag(arrow.levels)
    h[:, c] += g
    h[c] += g
    delta = None
    if not arrow.rwa:
        # g * (a^dag d^dag + d a) corresponds to Delta[bath, center] = g.
        delta = np.zeros_like(h)
        delta[:, c] = g
        delta = delta - delta.T
    return build_nambu(h, delta)


def bath_levels(config: ValveConfig, bath: BathRealization, which_bath: int) -> np.ndarray:
    """Mode energies of one bath's free Hamiltonian, zero off that bath (length M)."""
    levels = np.zeros(config.modes)
    levels[config.bath_slice(which_bath)] = bath.frequencies[which_bath - 1]
    return levels


def bath_hamiltonian(config: ValveConfig, bath: BathRealization, which_bath: int) -> NambuMatrix:
    """Diagonal Nambu matrix of one bath's free Hamiltonian."""
    return build_nambu(np.diag(bath_levels(config, bath, which_bath)))


def thermal_occupations(config: ValveConfig, bath: BathRealization) -> np.ndarray:
    """Initial mode occupations: thermal bath levels, empty central mode."""
    occ = np.zeros(config.modes)
    for which_bath in (1, 2):
        occ[config.bath_slice(which_bath)] = occupation(
            bath.frequencies[which_bath - 1], config.bath_temperature(which_bath)
        )
    return occ


def initial_correlation(config: ValveConfig, bath: BathRealization) -> CorrelationMatrix:
    """Diagonal chi(0) of the thermal initial state, as a dense 2M x 2M matrix."""
    occ = thermal_occupations(config, bath)
    return CorrelationMatrix(modes=config.modes, data=np.diag(np.concatenate([1 - occ, occ])))
