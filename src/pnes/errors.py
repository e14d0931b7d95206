"""Exception hierarchy.  Validation problems map to CLI exit code 1,
numerical failures to exit code 2."""


class ValidationError(ValueError):
    """Bad parameters or configuration, detected before any heavy computation."""


class DimensionTooSmallError(ValidationError):
    """Requested Fock cutoff cannot hold the state's tail below tolerance."""


class ExtrapolationError(ValidationError):
    """A sampled pump profile was queried outside its support."""


class NumericalError(RuntimeError):
    """Numerical failure during a computation that started with valid inputs."""


class NoisyDerivativeError(NumericalError):
    """Richardson-extrapolated finite difference did not converge.

    Carries both step estimates so callers can inspect the disagreement.
    """

    def __init__(self, message, estimate_h, estimate_h2):
        super().__init__(message)
        self.estimate_h = estimate_h
        self.estimate_h2 = estimate_h2


class StepSizeError(NumericalError):
    """Step-halving error estimate of an ODE integration exceeded tolerance."""
