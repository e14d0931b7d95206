"""Initial-state constructors: coherent pump, generic PNES, TWB, TMC.

Pair states are PureStates written straight into their n1 = n2 sector, with
a trivial pump dimension d0 = 1 (pump in vacuum); use ``product_state`` to
attach a real pump mode; ``initial_state`` builds the coherent(alpha) x pair
state of every exact run, so no CLI command uses ``PureState(config,
amplitudes)``, the one way in for a dense vector, or ``amplitudes`` and
``grid()``, the way out.  ``check_alpha`` and ``check_param`` are the one
check of alpha and of a family's parameter.  ``PAIR_FAMILIES`` states each
family's domain and its smallest cutoff, which keeps the tail below 1e-12,
negligible against every test tolerance; the constructors refuse any smaller.
"""

import math
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import DimensionTooSmallError, ValidationError
from .fock import PureState, TruncationConfig

TAIL_TOL = 1e-12
COHERENT_TAIL_WARN = 1e-6


class CoherentMode(NamedTuple):
    """Single-mode coherent amplitudes, renormalized after truncation.

    ``tail_mass`` is the pre-truncation probability beyond the cutoff;
    ``tail_warning`` flags tail_mass > 1e-6.
    """

    amplitudes: np.ndarray
    tail_mass: float
    tail_warning: bool


def check_alpha(alpha):
    """ValidationError unless alpha >= 0 with alpha^2 + 6 alpha + 10 (``pump_dimension``) finite."""
    a = float(alpha)  # a numpy scalar would warn where the sum overflows
    if not (a >= 0 and math.isfinite(a * a + 6 * a + 10)):
        raise ValidationError(f"alpha must be >= 0 with alpha^2 + 6 alpha + 10 finite, got {alpha!r}")


def coherent(alpha, d):
    """Coherent state amplitudes ~ alpha^n / sqrt(n!) on n < d, unit norm."""
    if d < 1:
        raise ValidationError(f"dimension must be >= 1, got {d}")
    check_alpha(alpha)
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


def _check_cutoff(family, param, d, smallest):
    if d < smallest:
        raise DimensionTooSmallError(f"{family}({param!r}) needs d >= {smallest} to keep its "
                                     f"tail below {TAIL_TOL:.0e}, got d={d}")


def twb(x, d):
    """Twin-beam (two-mode squeezed vacuum): amplitudes sqrt(1-x^2) x^n on |n,n>."""
    _check_cutoff("twb", x, d, min_dimension_twb(x))
    return pnes(math.sqrt(1.0 - x * x) * x ** np.arange(d), d)


def tmc(lam, d):
    """Two-mode coherently-correlated (degenerate pair-coherent) state.

    Amplitudes lambda^n / (n! sqrt(I0(2 lambda))) on |n,n>; eigenstate of
    a1 a2 with eigenvalue lambda.
    """
    _check_cutoff("tmc", lam, d, min_dimension_tmc(lam))
    if lam == 0.0:
        return pnes([1.0], d)
    n = np.arange(d)
    # lambda^n / n! in log space; stable for lambda^n past overflow
    log_c = n * math.log(lam) - np.array([math.lgamma(k + 1) for k in range(d)])
    return pnes(np.exp(log_c - np.max(log_c)), d)


def pnes(c, d):
    """Generic photon-number-entangled state with pair-number coefficients c.

    Returns the unit-norm state ~ sum_n c_n |n,n>, written straight into
    its one n1 - n2 sector, delta = 0; no dense vector is built.
    """
    c = np.asarray(c, dtype=np.complex128).reshape(-1)
    if c.size == 0 or not np.any(c):
        raise ValidationError("pnes coefficients must contain a nonzero entry")
    if not np.all(np.isfinite(c)):
        raise ValidationError("pnes coefficients must be finite")
    if d < c.size:
        raise ValidationError(f"dimension {d} smaller than coefficient count {c.size}")
    layout = kernels.sector_layout(TruncationConfig(1, d, d).shape, (0,))
    psi = np.zeros((1, d, 1), dtype=np.complex128)
    psi[0, :c.size, 0] = c / np.linalg.norm(c)
    return PureState.from_sectors(psi, layout)


def min_dimension_twb(x):
    """Smallest d keeping the twb tail x^(2d) below the constructor tolerance."""
    check_param("twb", x)
    if x == 0:
        return 1
    return math.floor(math.log(TAIL_TOL) / (2 * math.log(x))) + 1


def min_dimension_tmc(lam):
    """Smallest d keeping the tmc tail below the constructor tolerance."""
    check_param("tmc", lam)
    if lam == 0:
        return 1
    norm = float(np.i0(2 * lam))
    kept = 0.0
    for n in range(500):
        kept += math.exp(2 * (n * math.log(lam) - math.lgamma(n + 1)))
        if 1.0 - kept / norm < TAIL_TOL:
            return n + 1
    raise ValidationError(f"no adequate cutoff found for tmc(lambda={lam})")


def pump_dimension(alpha):
    """Default pump cutoff for a coherent amplitude alpha."""
    check_alpha(alpha)
    return math.ceil(alpha * alpha + 6 * alpha + 10)


def product_state(pump, pair):
    """Tensor product of a single-mode pump vector with a pair-sector state.

    The pump amplitudes times the pair's sectors, normalized; the dense
    (d0, d1, d2) grid is never built.
    """
    if isinstance(pump, CoherentMode):
        pump = pump.amplitudes
    pump = np.asarray(pump, dtype=np.complex128).reshape(-1)
    if not (np.any(pump) and np.all(np.isfinite(pump))):
        raise ValidationError("pump amplitudes must be finite with a nonzero entry")
    if pair.config.d0 != 1:
        raise ValidationError("pair state must have trivial pump dimension d0 = 1")
    cfg = TruncationConfig(pump.size, pair.config.d1, pair.config.d2)
    psi = pump[:, None, None] * pair.psi
    psi /= np.linalg.norm(psi)
    return PureState.from_sectors(psi, kernels.sector_layout(cfg.shape, pair.layout.deltas))


# name -> (constructor(param, d), smallest cutoff d of param, domain of param as
# (its statement, its test)); I0(2 lam), the tmc norm, nears overflow past 350
PAIR_FAMILIES = {
    "vacuum": (lambda param, d: pnes([1.0], d), lambda param: 1, ("any value", lambda p: True)),
    "twb": (twb, min_dimension_twb, ("0 <= x < 1", lambda x: 0 <= x < 1)),
    "tmc": (tmc, min_dimension_tmc, ("0 <= lam <= 350", lambda lam: 0 <= lam <= 350)),
}


def check_param(family, param):
    """ValidationError unless param lies in the family's domain (``PAIR_FAMILIES``)."""
    statement, holds = PAIR_FAMILIES[family][2]
    if not holds(param):
        raise ValidationError(f"{family} parameter must satisfy {statement}, got {param!r}")


def initial_state(family, param, alpha, d0, d):
    """coherent(alpha) on d0 pump levels times family(param) on d pair levels.

    d0 = 0 chooses ``pump_dimension(alpha)``.  A negative d0, a d below 1 (the
    CLI's ``pair_dim``) or an oversized box is refused before anything is built,
    and a d0 that cuts off more than COHERENT_TAIL_WARN of the pump raises
    DimensionTooSmallError.
    """
    if d0 < 0:
        raise ValidationError(f"d0 must be 0 (choose from alpha) or >= 1, got {d0}")
    if d < 1:
        raise ValidationError(f"pair_dim must be >= 1, got {d}")
    d0 = d0 or pump_dimension(alpha)
    TruncationConfig(d0, d, d)  # refuse an oversized box before building any of it
    pump = coherent(alpha, d0)
    if pump.tail_warning:
        raise DimensionTooSmallError(
            f"pump tail mass {pump.tail_mass:.3e} at d0={d0}, alpha={alpha!r} "
            f"exceeds {COHERENT_TAIL_WARN:.0e}; increase d0"
        )
    if family not in PAIR_FAMILIES:
        raise ValidationError(f"family must be one of {', '.join(PAIR_FAMILIES)}, got {family!r}")
    return product_state(pump, PAIR_FAMILIES[family][0](param, d))
