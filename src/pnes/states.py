"""Initial-state constructors: coherent pump, generic PNES, TWB, TMC.

Pair states live in the signal/idler sector and are returned as PureState
instances with a trivial pump dimension d0 = 1 (pump in vacuum); use
``product_state`` to attach a real pump mode.  All parameters are real and
nonnegative; truncation tails of the named families must stay below 1e-12
so state-construction error is negligible against every test tolerance.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooSmallError, ValidationError
from .fock import PureState, TruncationConfig

TAIL_TOL = 1e-12
COHERENT_TAIL_WARN = 1e-6


@dataclass
class CoherentMode:
    """Single-mode coherent amplitudes, renormalized after truncation.

    ``tail_mass`` is the pre-truncation probability beyond the cutoff;
    ``tail_warning`` flags tail_mass > 1e-6.
    """

    amplitudes: np.ndarray
    tail_mass: float
    tail_warning: bool


def coherent(alpha, d):
    """Coherent state amplitudes ~ alpha^n / sqrt(n!) on n < d, unit norm."""
    if d < 1:
        raise ValidationError(f"dimension must be >= 1, got {d}")
    if not np.isfinite(alpha) or alpha < 0:
        raise ValidationError(f"alpha must be finite and >= 0, got {alpha!r}")
    if alpha == 0.0:
        amps = np.zeros(d, dtype=np.complex128)
        amps[0] = 1.0
        return CoherentMode(amps, 0.0, False)
    n = np.arange(d)
    # log-space: log c_n = n log(alpha) - lgamma(n+1)/2, exact weight e^{-|a|^2}
    log_c = n * math.log(alpha) - 0.5 * np.array([math.lgamma(k + 1) for k in range(d)])
    log_p = 2.0 * log_c - alpha * alpha
    kept = float(np.sum(np.exp(log_p)))
    tail = max(0.0, 1.0 - kept)
    amps = np.exp(log_c - np.max(log_c)).astype(np.complex128)
    amps /= np.linalg.norm(amps)
    return CoherentMode(amps, tail, tail > COHERENT_TAIL_WARN)


def twb(x, d):
    """Twin-beam (two-mode squeezed vacuum): amplitudes sqrt(1-x^2) x^n on |n,n>."""
    if not 0 <= x < 1:
        raise ValidationError(f"twb parameter must satisfy 0 <= x < 1, got {x!r}")
    tail = x ** (2 * d)  # (1-x^2) * sum_{n>=d} x^{2n}
    if tail >= TAIL_TOL:
        raise DimensionTooSmallError(
            f"twb tail mass {tail:.3e} at d={d} exceeds {TAIL_TOL:.0e}; increase d"
        )
    return pnes(math.sqrt(1.0 - x * x) * x ** np.arange(d), d)


def _tmc_norm(lam):
    """I0(2 lambda), the tmc norm; ValidationError past 350, where it nears overflow."""
    if not 0 <= lam <= 350:
        raise ValidationError(f"tmc parameter must be in [0, 350], got {lam!r}")
    return float(np.i0(2 * lam))


def tmc(lam, d):
    """Two-mode coherently-correlated (degenerate pair-coherent) state.

    Amplitudes lambda^n / (n! sqrt(I0(2 lambda))) on |n,n>; eigenstate of
    a1 a2 with eigenvalue lambda.
    """
    if not np.isfinite(lam) or lam < 0:
        raise ValidationError(f"tmc parameter must be finite and >= 0, got {lam!r}")
    if lam == 0.0:
        return pnes([1.0], d)
    n = np.arange(d)
    # lambda^n / n! in log space; stable for lambda^n past overflow
    log_c = n * math.log(lam) - np.array([math.lgamma(k + 1) for k in range(d)])
    norm = _tmc_norm(lam)
    kept = float(np.sum(np.exp(2.0 * log_c))) / norm
    tail = max(0.0, 1.0 - kept)
    if tail >= TAIL_TOL:
        raise DimensionTooSmallError(
            f"tmc tail mass {tail:.3e} at d={d} exceeds {TAIL_TOL:.0e}; increase d"
        )
    return pnes(np.exp(log_c - np.max(log_c)), d)


def pnes(c, d):
    """Generic photon-number-entangled state with pair-number coefficients c.

    Returns the unit-norm state ~ sum_n c_n |n,n>; everything off the
    n1 = n2 diagonal is exactly zero.
    """
    c = np.asarray(c, dtype=np.complex128).reshape(-1)
    if c.size == 0 or not np.any(c):
        raise ValidationError("pnes coefficients must contain a nonzero entry")
    if not np.all(np.isfinite(c)):
        raise ValidationError("pnes coefficients must be finite")
    if d < c.size:
        raise ValidationError(f"dimension {d} smaller than coefficient count {c.size}")
    cfg = TruncationConfig(1, d, d)
    amps = np.zeros(cfg.dim, dtype=np.complex128)
    amps[np.arange(c.size) * (d + 1)] = c
    amps /= np.linalg.norm(amps)
    return PureState(cfg, amps)


def min_dimension_twb(x):
    """Smallest d keeping the twb tail below the constructor tolerance."""
    if x == 0:
        return 1
    return max(1, math.ceil(math.log(TAIL_TOL) / (2 * math.log(x))) + 1)


def min_dimension_tmc(lam):
    """Smallest d keeping the tmc tail below the constructor tolerance."""
    if lam == 0:
        return 1
    norm = _tmc_norm(lam)
    kept = 0.0
    for n in range(400):
        kept += math.exp(2 * (n * math.log(lam) - math.lgamma(n + 1)))
        if 1.0 - kept / norm < TAIL_TOL:
            return n + 1
    raise ValidationError(f"no adequate cutoff found for tmc(lambda={lam})")


def pump_dimension(alpha):
    """Default pump cutoff for a coherent amplitude alpha."""
    d = alpha * alpha + 6 * alpha + 10
    if not (alpha >= 0 and math.isfinite(d)):
        raise ValidationError(
            f"alpha must be >= 0 with alpha^2 + 6 alpha + 10 finite, got {alpha!r}"
        )
    return math.ceil(d)


def product_state(pump, pair):
    """Tensor product of a single-mode pump vector with a pair-sector state."""
    if isinstance(pump, CoherentMode):
        pump = pump.amplitudes
    pump = np.asarray(pump, dtype=np.complex128).reshape(-1)
    if pair.config.d0 != 1:
        raise ValidationError("pair state must have trivial pump dimension d0 = 1")
    cfg = TruncationConfig(pump.size, pair.config.d1, pair.config.d2)
    amps = np.kron(pump, pair.amplitudes)
    amps /= np.linalg.norm(amps)
    return PureState(cfg, amps)
