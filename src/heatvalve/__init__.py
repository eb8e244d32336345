"""Exact heat transport in quadratic fermionic systems.

Correlation-matrix evolution for quadratic fermionic Hamiltonians,
a single-mode heat valve built on it, analytic steady-state and transient
formulas, and a brute-force Fock-space oracle for verification.
"""

__version__ = "0.1.0"

from .nambu import Arrow, ArrowPropagator, arrow_propagator
from .valve import (
    BathRealization,
    CouplingDistribution,
    InternalCouplingSpec,
    ValveConfig,
    apply_internal_couplings,
    bath_levels,
    build_arrow,
    sample_bath,
    thermal_occupations,
)
from .evolution import CurrentTrace, heat_current, window_mean_current
from .analytics import (
    anomalous_current_continuum,
    anomalous_current_discrete,
    empirical_gamma,
    fermi,
    heisenberg_time,
    landauer_current,
    levels_per_linewidth,
    occupation,
    relaxation_time,
    self_energy,
    spectral_density,
    transmission,
    weak_coupling_current,
)
