"""Single-mode heat valve: bath sampling, Hamiltonians, initial state.

Two baths of N fermionic two-level systems each bridge a single central
level of frequency omega0 = 1.  Mode ordering everywhere is
(bath-1 modes, central mode, bath-2 modes), so M = 2N + 1 and the central
index is N.  Couplings of the central level to every bath mode carry both
the particle-conserving hopping and, unless the rotating-wave approximation
is requested, the particle-non-conserving pairing terms.  The engine takes
a realization as its arrow (``build_arrow``) and its initial state as the
occupation vector (``thermal_occupations``).  ``hamiltonian_blocks`` spells
the arrow out as the M x M particle and pairing blocks, for the Fock oracle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

# loaded with the module: every run samples a bath, and numpy loads its
# random module only on first use, which would put that cost inside the run
import numpy.random

from .analytics import BAND_TOP, occupation
from .nambu import Arrow


class CouplingDistribution(str, enum.Enum):
    UNIFORM = "uniform"          # i.i.d. uniform on [-gamma/sqrt(N), gamma/sqrt(N)]
    GAUSSIAN = "gaussian"        # i.i.d. zero-mean normal, variance gamma^2/(3N)
    EQUAL = "equal"              # deterministic, all gamma/sqrt(3N)


@dataclass(frozen=True)
class InternalCouplingSpec:
    """Random particle-conserving couplings among each bath's modes, of one real scale.

    ``apply_internal_couplings`` draws them per bath as the real symmetric
    N x N matrix (A + A^T)/2, where A has i.i.d. normal entries of standard
    deviation scale/sqrt(N), so the induced frequency shifts stay of order
    ``scale``.
    """

    scale: float = 0.1


# the bath (``ValveConfig.bath_slice``) whose heat current the experiments
# and the Fock oracle measure
COLD_BATH = 2


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
            raise ValueError("couplings must be real")
        self.frequencies.setflags(write=False)
        self.couplings.setflags(write=False)

    @property
    def bath_size(self) -> int:
        return self.frequencies.shape[1]


def sample_bath(config: ValveConfig) -> BathRealization:
    """Draw one bath realization, deterministic given config.seed.

    Frequencies are i.i.d. uniform on [0, BAND_TOP] = [0, 2].  All three coupling
    distributions share the second moment gamma^2/(3N).
    """
    rng = np.random.default_rng(config.seed)
    N = config.bath_size
    freqs = rng.uniform(0.0, BAND_TOP, size=(2, N))
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
    """Fold each bath's random internal couplings into its levels and couplings.

    A config without internal couplings folds to itself: the bath is
    returned as drawn.  Otherwise one real symmetric matrix per bath (bath 1,
    then bath 2, see ``InternalCouplingSpec``) comes from the stream
    ``default_rng([seed, 0x1C])``, decoupled from ``sample_bath``'s by the
    fixed tag; both are drawn at once.  Diagonalizing diag(w_ak) + that
    matrix, both baths in one stacked eigh, gives new level
    frequencies (the eigenvalues) and rotated couplings g_a -> |U^T g_a|:
    the modulus fixes each eigenvector's sign, arbitrary in eigh anyway, so
    that every coupling is non-negative.  The couplings' sum of squares is
    preserved.  Transformed frequencies may leave the [0, 2] band.
    """
    spec = config.internal_coupling
    if spec is None:
        return bath
    N = config.bath_size
    rng = np.random.default_rng([config.seed, 0x1C])
    A = rng.normal(scale=spec.scale / np.sqrt(N), size=(2, N, N))
    H = A + A.transpose(0, 2, 1)
    H /= 2
    H[:, np.arange(N), np.arange(N)] += bath.frequencies
    evals, U = np.linalg.eigh(H)
    new_g = np.abs((U.transpose(0, 2, 1) @ bath.couplings[:, :, None])[..., 0])
    return BathRealization(frequencies=evals, couplings=new_g)


def build_arrow(config: ValveConfig, bath: BathRealization) -> Arrow:
    """The valve's K = h + Delta: bath levels and omega0 = 1, central couplings."""
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
    levels[config.center] = 1.0
    return Arrow(levels=levels, couplings=couplings, center=config.center, rwa=config.rwa)


def hamiltonian_blocks(config: ValveConfig, bath: BathRealization) -> tuple[np.ndarray, np.ndarray]:
    """The valve's particle block h and pairing block Delta, built from ``build_arrow``.

    The couplings g hop on the central row and column of h.  Unless ``rwa``
    they also pair: g_j (a_j^dag a_c^dag + a_c a_j) is Delta[j, c] = g_j,
    antisymmetrized.  Under the RWA Delta is zero.
    """
    arrow = build_arrow(config, bath)
    c, g = arrow.center, arrow.couplings
    h = np.diag(arrow.levels)
    h[:, c] += g
    h[c] += g
    delta = np.zeros_like(h)
    if not arrow.rwa:
        delta[:, c] = g
        delta = delta - delta.T
    return h, delta


def bath_levels(config: ValveConfig, bath: BathRealization, which_bath: int) -> np.ndarray:
    """Mode energies of one bath's free Hamiltonian, zero off that bath (length M)."""
    levels = np.zeros(config.modes)
    levels[config.bath_slice(which_bath)] = bath.frequencies[which_bath - 1]
    return levels


def thermal_occupations(config: ValveConfig, bath: BathRealization) -> np.ndarray:
    """Initial mode occupations: thermal bath levels, empty central mode."""
    occ = np.zeros(config.modes)
    for which_bath in (1, 2):
        occ[config.bath_slice(which_bath)] = occupation(
            bath.frequencies[which_bath - 1], config.bath_temperature(which_bath)
        )
    return occ
