"""Three-mode simulator for photon-number-entangled-state (PNES) generation
in stimulated parametric down conversion.

The package evolves the full quantum state of pump + signal + idler under the
trilinear interaction, integrates the mean-field model for the pair amplitude
and photon number, and compares the two for twin-beam (TWB) and two-mode
coherently-correlated (TMC) initial states.
"""

__version__ = "0.1.0"

# the module that defines each public name; it is imported on the name's first access
# (PEP 562), so ``import pnes.cli`` loads only what the command it runs needs
_SOURCES = {
    "fock": ("TruncationConfig", "PureState", "HamiltonianParams", "basis_index"),
    "states": ("coherent", "twb", "tmc", "pnes", "product_state"),
    "observables": ("measure", "ObservableSet"),
    "propagator": ("EvolutionSpec", "ExactTrajectory", "evolve"),
    "meanfield": ("PumpProfile", "ModelTrajectory", "tau_of_t", "closed_form",
                  "closed_form_trajectory", "integrate_model", "twb_x_from_tau"),
    "dispersion": ("DispersionReport", "analytic_rate", "model_rate_from_trajectory",
                   "exact_rate_fd", "diagnostic_simple_rate", "build_report"),
}
_SOURCE = {name: module for module, names in _SOURCES.items() for name in names}
__all__ = list(_SOURCE)


def __getattr__(name):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{_SOURCE[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
