"""Mean-field model of PNES generation.

With a prescribed real pump profile a(t) and real slow pair amplitude
Lambda(t), the state parameters obey

    dLambda/dt = chi (N + 1) a(t)
    dN/dt      = 4 chi Lambda a(t)

whose solution from vacuum initial conditions is hyperbolic in the pump's
integral characteristic tau(t) = chi * integral of a up to t:

    Lambda = sinh(tau) cosh(tau),    N = 2 sinh^2(tau)

So the model reads the pump only through tau (``tau_of_t``, on a whole time
grid at once) and starts from vacuum where tau = 0, before any pump area.  It
has the first integral (N+1)^2 - 4 Lambda^2 = 1 and is realized exactly by
the twin-beam family via x = tanh(tau).  Pump depletion is out of scope: no
back-reaction on a(t), the model's one input, is modeled.

The ODE is also integrated by RK4 (``integrate_model``), as an independent
check of the closed form.  It runs in tau, where the system is linear in
(Lambda, N, 1) with one constant matrix: each RK4 substep is one 3x3 step
matrix, and the whole time grid is integrated as array arithmetic.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import ExtrapolationError, NumericalError, StepSizeError, ValidationError
from .fock import HamiltonianParams

_ODE_TOL = 1e-8
_MAX_SUBSTEPS = 100_000  # per interval in the coarse pass; a grid that needs more is refused
_A = np.array([[0.0, 1.0, 1.0], [4.0, 0.0, 0.0], [0.0, 0.0, 0.0]])  # d(Lambda, N, 1)/dtau = A z


class PumpProfile(NamedTuple("PumpProfile", [
        ("variant", str), ("a", float), ("T", float), ("t_center", float),
        ("width", float), ("times", tuple), ("values", tuple)])):
    """Prescribed classical pump amplitude a(t).

    Variants: rectangular (a on [0, T]), constant (a for t >= 0, zero
    before: a rectangle whose T the constructor sets to inf), gaussian, and
    sampled (linear interpolation; zero before the first sample, error past
    the last; times and values kept as tuples of floats, so profiles compare
    and hash by value).  Each variant reads only its own fields.  An immutable
    NamedTuple whose constructor, ``_replace`` included, checks those fields;
    the classmethods name them.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, variant, a=0.0, T=0.0, t_center=0.0, width=0.0, times=None, values=None):
        if variant == "sampled":
            times = np.asarray(times, dtype=float)
            values = np.asarray(values, dtype=float)
            if times.ndim != 1 or times.size < 2 or times.size != values.size:
                raise ValidationError("sampled profile needs matching 1-d times/values, >= 2 points")
            if not np.all(np.diff(times) > 0):
                raise ValidationError("sampled times must be strictly increasing")
            if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
                raise ValidationError("sampled profile must be finite")
            times, values = tuple(times.tolist()), tuple(values.tolist())
        elif variant not in ("constant", "rectangular", "gaussian"):
            raise ValidationError(f"unknown profile {variant!r}")
        elif not np.isfinite(a):
            raise ValidationError(f"pump amplitude must be finite, got {a!r}")
        elif variant == "constant":
            T = math.inf
        elif variant == "rectangular" and not (np.isfinite(T) and T > 0):
            raise ValidationError(f"rectangular pulse duration must be > 0, got {T!r}")
        elif variant == "gaussian" and not (np.isfinite(width) and width > 0):
            raise ValidationError(f"gaussian width must be > 0, got {width!r}")
        elif variant == "gaussian" and not np.isfinite(t_center):
            raise ValidationError(f"gaussian center must be finite, got {t_center!r}")
        return super().__new__(cls, variant, a, T, t_center, width, times, values)

    @classmethod
    def constant(cls, a):
        return cls("constant", a=a)

    @classmethod
    def rectangular(cls, a, T):
        return cls("rectangular", a=a, T=T)

    @classmethod
    def gaussian(cls, a_peak, t_center, width):
        return cls("gaussian", a=a_peak, t_center=t_center, width=width)

    @classmethod
    def sampled(cls, times, values):
        return cls("sampled", times=times, values=values)

    def amplitude(self, t):
        """a(t) at a time or an array of times; a float for a scalar time."""
        t = np.asarray(t, dtype=float)
        if self.variant == "gaussian":
            with np.errstate(over="ignore"):  # a far, narrow pulse: z z = inf, so a = 0
                z = (t - self.t_center) / self.width
                a = self.a * np.exp(-0.5 * z * z)
        elif self.variant != "sampled":  # a rectangle, T = inf for a constant pump
            a = np.where((t >= 0) & (t <= self.T), self.a, 0.0)
        elif np.any(t > self.times[-1]):  # sampled: zero before the support, error past it
            raise ExtrapolationError(
                f"sampled profile queried at t={np.max(t)} past its support end {self.times[-1]}"
            )
        else:
            a = np.interp(t, self.times, self.values, left=0.0)
        return float(a) if a.ndim == 0 else a


def tau_of_t(p, chi, t):
    """tau(t) = chi * integral of a(t') from -infinity to t, in closed form, at a
    time or an array of times; a float for a scalar time; inf or nan, with no
    warning, where it overflows float64.

    Rectangular profiles (constant: T = inf) integrate to ramps; the gaussian to
    chi a w sqrt(pi/2) erfc(-(t - c) / (w sqrt 2)), which keeps its relative
    precision in the left tail; a sampled profile to the exact area under its
    linear interpolant, one cumulative sum of its trapezoids plus the partial
    segment up to each t (ExtrapolationError past the last sample).
    """
    HamiltonianParams(chi)
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        if p.variant == "gaussian":  # numpy has no erfc: math.erfc point by point
            z = -(t - p.t_center) / (p.width * math.sqrt(2.0))
            erfc = np.array([math.erfc(v) for v in z.ravel().tolist()]).reshape(z.shape)
            tau = chi * p.a * p.width * math.sqrt(0.5 * math.pi) * erfc
        elif p.variant != "sampled":  # a rectangle, T = inf for a constant pump
            tau = chi * p.a * np.clip(t, 0.0, p.T)
        else:  # whole trapezoids before t plus the partial segment up to t
            ts, vs = np.asarray(p.times), np.asarray(p.values)
            whole = np.concatenate(([0.0], np.cumsum(np.diff(ts) * (vs[1:] + vs[:-1]))))
            k = np.maximum(np.searchsorted(ts, t), 1) - 1  # ts[k] < t <= ts[k + 1]
            segment = (t - ts[k]) * (vs[k] + p.amplitude(t))  # amplitude raises past the end
            tau = np.where(t > ts[0], chi * 0.5 * (whole[k] + segment), 0.0)
    return float(tau) if tau.ndim == 0 else tau


def closed_form(tau):
    """(Lambda, N) = (sinh tau cosh tau, 2 sinh^2 tau) at a tau or an array of them;
    ValidationError for a non-finite tau, NumericalError if N overflows (|tau| > ~355)."""
    x = np.asarray(tau, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValidationError(f"tau must be finite, got {tau!r}")
    with np.errstate(over="ignore"):  # an overflow is raised below
        sh = np.sinh(x)
        lam, n = sh * np.cosh(x), 2.0 * (sh * sh)
    if not np.all(np.isfinite(n)):  # N = 2 sh^2 overflows before Lambda = sh ch
        raise NumericalError(f"the closed form overflows float64 at |tau| = {float(np.max(np.abs(x)))!r}")
    return lam, n


def twb_x_from_tau(tau):
    """x = tanh(tau): the TWB parameter realizing the model solution exactly."""
    return math.tanh(tau)


class ModelTrajectory(NamedTuple):
    """Model solution on a time grid, with the pump area tau at each time."""

    times: np.ndarray
    tau: np.ndarray
    Lambda: np.ndarray
    N: np.ndarray


def closed_form_trajectory(p, chi, t_grid):
    tau = tau_of_t(p, chi, t_grid)
    return ModelTrajectory(np.asarray(t_grid, dtype=float), tau, *closed_form(tau))


def _rk4_pass(dtau, n_sub):
    """(Lambda, N) at every grid point, by RK4 in tau with n_sub substeps per interval:
    a substep of length h is z -> R z, R = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24,
    and a log-depth prefix product of the intervals' R^n_sub gives every grid point."""
    hA, eye = (dtau / n_sub)[:, None, None] * _A, np.eye(3)
    prod = np.linalg.matrix_power(eye + hA @ (eye + hA @ (eye + hA @ (eye + hA / 4) / 3) / 2), n_sub)
    shift = 1
    while shift < len(prod):  # prod[j] becomes the product over intervals 0..j
        prod[shift:] = prod[shift:] @ prod[:-shift]
        shift *= 2
    # the start is z = (0, 0, 1), so (Lambda, N) at a grid point is its product's last column
    return np.concatenate(([[0.0, 0.0]], prod[:, :2, 2]))


def integrate_model(p, chi, t_grid, assume_zero_initial=False):
    """RK4 integration of the state-parameter system from (Lambda, N) = (0, 0).

    In tau the system is z' = A z, with z = (Lambda, N, 1) and the constant
    A = [[0, 1, 1], [4, 0, 0], [0, 0, 0]], so the pump enters only through
    tau = ``tau_of_t`` on the grid, which the result carries.  Each interval
    takes n_sub = max(4, ceil(400 max |dtau|)) substeps of its own dtau.  No
    property of A is used, so this stays an independent check of the closed
    form; for a >= 0 every step matrix is nonnegative, so N keeps its relative
    precision in the pump's tail.

    Before any substep, ValidationError refuses a grid whose largest |dtau|
    needs more than 100 000 substeps, naming that interval and its tau span,
    and one that starts inside or after a pulse (|tau(t0)| > 1e-14), since the
    start is the vacuum (assume_zero_initial=True skips that check); past a
    sampled pump's last sample, ExtrapolationError names the grid's last time.
    Step halving checks accuracy (StepSizeError above 1e-8 * max(1, |value|)),
    and a state that overflows float64 raises NumericalError.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 2 or not np.all(np.isfinite(t_grid)):
        raise ValidationError("t_grid must be a finite 1-d array with >= 2 points")
    if not np.all(np.diff(t_grid) > 0):
        raise ValidationError("t_grid must be strictly increasing")
    tau = tau_of_t(p, chi, t_grid)
    with np.errstate(invalid="ignore"):  # inf - inf where tau overflows: refused below
        dtau = np.diff(tau)
    i = int(np.argmax(np.abs(dtau)))  # the first nan, if any
    work = 400.0 * abs(float(dtau[i]))
    if not work <= _MAX_SUBSTEPS:
        raise ValidationError(f"the grid interval [{float(t_grid[i])!r}, {float(t_grid[i + 1])!r}] "
                              f"takes tau from {float(tau[i])!r} to {float(tau[i + 1])!r}, so it needs "
                              f"{work:.3g} RK4 substeps, more than {_MAX_SUBSTEPS}: add grid points")
    tau0 = 0.0 if assume_zero_initial else float(tau[0])
    if not abs(tau0) <= 1e-14:
        raise ValidationError(f"the pump area tau = {tau0!r} does not vanish at t0={float(t_grid[0])!r}: "
                              "the model starts from vacuum, so the grid must start before the pump")
    n_sub = max(4, math.ceil(work))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below
        coarse, fine = (_rk4_pass(dtau, n) for n in (n_sub, 2 * n_sub))
        err = float(np.max(np.abs(coarse - fine) / np.maximum(1.0, np.abs(fine))))
    overflow = ~np.isfinite(fine).all(axis=1)
    if overflow.any():
        raise NumericalError(f"the model overflows float64 by t={float(t_grid[overflow.argmax()])!r}")
    if not err <= _ODE_TOL:  # also when err is nan
        raise StepSizeError(f"step-halving error estimate {err:.3e} exceeds {_ODE_TOL:.0e} * max(1, |value|)")
    return ModelTrajectory(t_grid, tau, *fine.T)
