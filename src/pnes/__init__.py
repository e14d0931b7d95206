"""Three-mode simulator for photon-number-entangled-state (PNES) generation
in stimulated parametric down conversion.

The package evolves the full quantum state of pump + signal + idler under the
trilinear interaction, integrates the mean-field model for the pair amplitude
and photon number, and compares the two for twin-beam (TWB) and two-mode
coherently-correlated (TMC) initial states.
"""

__version__ = "0.1.0"

from .fock import TruncationConfig, PureState, HamiltonianParams, basis_index
from .states import coherent, twb, tmc, pnes, product_state
from .observables import measure, ObservableSet
from .propagator import EvolutionSpec, ExactTrajectory, evolve, rate_of
from .meanfield import (
    PumpProfile,
    ModelTrajectory,
    tau_of_t,
    closed_form,
    closed_form_trajectory,
    integrate_model,
    twb_x_from_tau,
)
from .dispersion import (
    DispersionReport,
    analytic_rate,
    model_rate_from_trajectory,
    exact_rate,
    exact_rate_fd,
    diagnostic_simple_rate,
    build_report,
)

__all__ = [
    "TruncationConfig",
    "PureState",
    "HamiltonianParams",
    "basis_index",
    "coherent",
    "twb",
    "tmc",
    "pnes",
    "product_state",
    "measure",
    "ObservableSet",
    "EvolutionSpec",
    "ExactTrajectory",
    "evolve",
    "rate_of",
    "PumpProfile",
    "ModelTrajectory",
    "tau_of_t",
    "closed_form",
    "closed_form_trajectory",
    "integrate_model",
    "twb_x_from_tau",
    "DispersionReport",
    "analytic_rate",
    "model_rate_from_trajectory",
    "exact_rate",
    "exact_rate_fd",
    "diagnostic_simple_rate",
    "build_report",
]
