"""Exact heat transport in quadratic fermionic systems.

Correlation-matrix evolution for quadratic fermionic Hamiltonians,
a single-mode heat valve built on it, analytic steady-state and transient
formulas, and a brute-force Fock-space oracle for verification.
"""

__version__ = "0.1.0"

from .nambu import (
    CorrelationMatrix,
    NambuMatrix,
    QuasiparticleBasis,
    build_nambu,
    diagonalize,
    expectation,
    observable_rate,
)
from .valve import (
    BathRealization,
    CouplingDistribution,
    InternalCouplingSpec,
    ValveConfig,
    apply_internal_couplings,
    bath_hamiltonian,
    bath_levels,
    build_hamiltonian,
    initial_correlation,
    sample_bath,
)
from .evolution import (
    CurrentTrace,
    Propagator,
    evolve,
    expectation_series,
    heat_current,
    make_propagator,
    steady_state_estimate,
)
from .analytics import (
    UniformBathSpec,
    anomalous_current_continuum,
    anomalous_current_discrete,
    empirical_gamma,
    fermi,
    landauer_current,
    occupation,
    self_energy,
    spectral_density,
    transmission,
    weak_coupling_current,
)
