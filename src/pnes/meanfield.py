"""Mean-field model of PNES generation.

With a prescribed real pump profile a(t) and real slow pair amplitude
Lambda(t), the state parameters obey

    dLambda/dt = chi (N + 1) a(t)
    dN/dt      = 4 chi Lambda a(t)

whose solution from vacuum initial conditions is hyperbolic in the pump's
integral characteristic tau(t) = chi * integral of a up to t:

    Lambda = sinh(tau) cosh(tau),    N = 2 sinh^2(tau)

The model has the first integral (N+1)^2 - 4 Lambda^2 = 1 and is realized
exactly by the twin-beam family via x = tanh(tau).  Pump depletion is out
of scope: no back-reaction on a(t) is modeled.

The ODE is also integrated by RK4 (``integrate_model``), as an independent
check of the closed form.  The system is linear in (Lambda, N, 1), so each
RK4 substep is one 3x3 step matrix, and the integration is array
arithmetic over all pieces of the time grid at once.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ExtrapolationError, StepSizeError, ValidationError

_ODE_TOL = 1e-8


@dataclass(frozen=True)
class PumpProfile:
    """Prescribed classical pump amplitude a(t).

    Variants: constant (a for t >= 0, zero before), rectangular (a on
    [0, T]), gaussian, and sampled (linear interpolation; zero before the
    first sample, error past the last).
    """

    variant: str
    a: float = 0.0
    T: float = 0.0
    t_center: float = 0.0
    width: float = 0.0
    times: np.ndarray = None
    values: np.ndarray = None

    @classmethod
    def constant(cls, a):
        _check_amp(a)
        return cls("constant", a=a)

    @classmethod
    def rectangular(cls, a, T):
        _check_amp(a)
        if not (np.isfinite(T) and T > 0):
            raise ValidationError(f"rectangular pulse duration must be > 0, got {T!r}")
        return cls("rectangular", a=a, T=T)

    @classmethod
    def gaussian(cls, a_peak, t_center, width):
        _check_amp(a_peak)
        if not (np.isfinite(width) and width > 0):
            raise ValidationError(f"gaussian width must be > 0, got {width!r}")
        if not np.isfinite(t_center):
            raise ValidationError(f"gaussian center must be finite, got {t_center!r}")
        return cls("gaussian", a=a_peak, t_center=t_center, width=width)

    @classmethod
    def sampled(cls, times, values):
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times.ndim != 1 or times.size < 2 or times.size != values.size:
            raise ValidationError("sampled profile needs matching 1-d times/values, >= 2 points")
        if not np.all(np.diff(times) > 0):
            raise ValidationError("sampled times must be strictly increasing")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            raise ValidationError("sampled profile must be finite")
        return cls("sampled", times=times, values=values)

    def amplitude(self, t):
        """a(t) at a time or an array of times; a float for a scalar time."""
        t = np.asarray(t, dtype=float)
        if self.variant == "constant":
            a = np.where(t >= 0, self.a, 0.0)
        elif self.variant == "rectangular":
            a = np.where((t >= 0) & (t <= self.T), self.a, 0.0)
        elif self.variant == "gaussian":
            z = (t - self.t_center) / self.width
            a = self.a * np.exp(-0.5 * z * z)
        elif np.any(t > self.times[-1]):  # sampled: zero before the support, error past it
            raise ExtrapolationError(
                f"sampled profile queried at t={np.max(t)} past its support end {self.times[-1]}"
            )
        else:
            a = np.interp(t, self.times, self.values, left=0.0)
        return float(a) if a.ndim == 0 else a

    def peak(self):
        if self.variant == "sampled":
            return float(np.max(np.abs(self.values)))
        return abs(self.a)

    def breakpoints(self):
        """Times where the profile or its slope jumps (integration split points)."""
        if self.variant == "constant":
            return (0.0,)
        if self.variant == "rectangular":
            return (0.0, self.T)
        if self.variant == "sampled":
            return tuple(self.times.tolist())
        return ()


def _check_amp(a):
    if not np.isfinite(a):
        raise ValidationError(f"pump amplitude must be finite, got {a!r}")


def tau_of_t(p, chi, t):
    """tau(t) = chi * integral of a(t') from -infinity to t, in closed form.

    Constant and rectangular profiles integrate to ramps; the gaussian to
    chi a w sqrt(pi/2) erfc(-(t - c) / (w sqrt 2)), which keeps its relative
    precision in the left tail; a sampled profile to the exact area under
    its linear interpolant (ExtrapolationError past the last sample).
    """
    if chi < 0 or not np.isfinite(chi):
        raise ValidationError(f"chi must be finite and >= 0, got {chi!r}")
    if p.variant == "constant":
        return chi * p.a * max(t, 0.0)
    if p.variant == "rectangular":
        return chi * p.a * min(max(t, 0.0), p.T)
    if p.variant == "gaussian":
        z = -(t - p.t_center) / (p.width * math.sqrt(2.0))
        return chi * p.a * p.width * math.sqrt(0.5 * math.pi) * math.erfc(z)
    # sampled: whole trapezoids before t plus the partial segment up to t
    if t <= p.times[0]:
        return 0.0
    a_t = p.amplitude(t)  # raises past the last sample
    k = int(np.searchsorted(p.times, t))  # times[k-1] < t <= times[k]
    ts, vs = p.times[:k], p.values[:k]
    whole = float(np.dot(np.diff(ts), vs[1:] + vs[:-1]))
    return chi * 0.5 * (whole + (t - ts[-1]) * (vs[-1] + a_t))


def closed_form(tau):
    """(Lambda, N) = (sinh tau cosh tau, 2 sinh^2 tau)."""
    if not np.isfinite(tau):
        raise ValidationError(f"tau must be finite, got {tau!r}")
    sh = math.sinh(tau)
    return sh * math.cosh(tau), 2.0 * sh * sh


def twb_x_from_tau(tau):
    """x = tanh(tau): the TWB parameter realizing the model solution exactly."""
    return math.tanh(tau)


@dataclass
class ModelTrajectory:
    """Model solution on a time grid; ``tau`` is None for source == "ode"
    (the ODE does not need it; ``closed_form_trajectory`` reports it)."""

    times: np.ndarray
    tau: np.ndarray
    Lambda: np.ndarray
    N: np.ndarray
    source: str  # "closed_form" | "ode"


def closed_form_trajectory(p, chi, t_grid):
    t_grid = np.asarray(t_grid, dtype=float)
    tau = np.array([tau_of_t(p, chi, t) for t in t_grid])
    lam = np.sinh(tau) * np.cosh(tau)
    n = 2.0 * np.sinh(tau) ** 2
    return ModelTrajectory(t_grid, tau, lam, n, "closed_form")


def _rk4_pass(p, chi, t_grid, n_sub):
    """RK4 with n_sub substeps per piece, one 3x3 step matrix per substep.

    The pieces are the grid intervals split at the profile's breakpoints.
    Each substep column evaluates the pump once per stage for all pieces and
    multiplies the step matrices into each piece's product; a log-depth
    prefix product over the pieces then gives the state at every edge.  The
    stage times are those of scalar RK4: the substep time advances by h and
    the last substep ends exactly at the piece's right end.
    """
    breaks = np.asarray(p.breakpoints(), dtype=float)
    k = np.searchsorted(t_grid, breaks)
    inside = (k > 0) & (k < t_grid.size)
    inside[inside] = t_grid[k[inside]] != breaks[inside]  # a grid point is no new edge
    edges = np.sort(np.concatenate((t_grid, breaks[inside])))
    lo, hi = edges[:-1], edges[1:]
    h = (hi - lo) / n_sub
    piecewise_const = p.variant in ("constant", "rectangular")
    if piecewise_const:
        a_mid = p.amplitude(0.5 * (lo + hi))  # holds on the whole piece
    # a piece ending by the first sample sees the zero before it, not the jump there
    h_a = np.where(hi > p.times[0], h, 0.0) if p.variant == "sampled" else h
    A = np.array([[0.0, chi, chi], [4.0 * chi, 0.0, 0.0], [0.0, 0.0, 0.0]])
    powers = np.stack([np.linalg.matrix_power(A, j) for j in range(5)]).reshape(5, 9)
    prod = np.eye(3)
    t = lo
    for i in range(n_sub):
        t_end = hi if i == n_sub - 1 else t + h
        if piecewise_const:
            s1 = s2 = s4 = h * a_mid
        else:
            s1, s2, s4 = (h_a * p.amplitude(s) for s in (t, t + 0.5 * h, t_end))
        coef = np.stack((np.ones_like(h), (s1 + 4.0 * s2 + s4) / 6.0, s2 * (s1 + s2 + s4) / 6.0,
                         s2 * s2 * (s1 + s4) / 12.0, s1 * s2 * s2 * s4 / 24.0), axis=-1)
        prod = (coef @ powers).reshape(-1, 3, 3) @ prod
        t = t_end
    shift = 1
    while shift < len(prod):  # prod[j] becomes the product over pieces 0..j
        prod[shift:] = prod[shift:] @ prod[:-shift]
        shift *= 2
    # the start is z = (0, 0, 1), so (Lambda, N) at an edge is its product's last column
    at = np.searchsorted(edges, t_grid[1:]) - 1
    return (np.concatenate(([0.0], prod[at, 0, 2])),
            np.concatenate(([0.0], prod[at, 1, 2])))


def integrate_model(p, chi, t_grid, assume_zero_initial=False):
    """RK4 integration of the state-parameter system from (Lambda, N) = (0, 0).

    The system is linear: z = (Lambda, N, 1) obeys z' = a(t) A z with
    A = [[0, chi, chi], [4 chi, 0, 0], [0, 0, 0]].  One RK4 substep of
    length h is then exactly z -> R z with R = I + c1 A + c2 A^2 + c3 A^3
    + c4 A^4, where, for s1, s2, s4 = h a at the start, middle and end,

        c1 = (s1 + 4 s2 + s4) / 6,    c2 = s2 (s1 + s2 + s4) / 6,
        c3 = s2^2 (s1 + s4) / 12,     c4 = s1 s2^2 s4 / 24,

    so the product of the R is the scalar RK4 recurrence up to rounding.  It
    uses no property of A, so the ODE stays an independent check of the
    hyperbolic closed form.  For a >= 0 every entry of R is nonnegative, and
    N keeps its relative precision in the pump's tail.

    Pieces between the grid points and the profile's breakpoints take
    n_sub substeps each; constant and rectangular pieces use the profile's
    value at the piece's midpoint, and sampled pieces that end by the first
    sample use 0, the value before it.  The first grid point must precede the
    pump (a(t0) < 1e-14) unless assume_zero_initial declares the vacuum
    start explicitly.  Accuracy is verified by step halving: a disagreement
    above 1e-8 * max(1, |value|) raises StepSizeError.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 2:
        raise ValidationError("t_grid must be a 1-d array with >= 2 points")
    if not np.all(np.diff(t_grid) > 0):
        raise ValidationError("t_grid must be strictly increasing")
    if not assume_zero_initial and abs(p.amplitude(float(t_grid[0]))) > 1e-14:
        raise ValidationError(
            f"profile does not vanish at t0={t_grid[0]} "
            "(pass assume_zero_initial=True to start from (0, 0) anyway)"
        )
    if chi < 0 or not np.isfinite(chi):
        raise ValidationError(f"chi must be finite and >= 0, got {chi!r}")

    dt_max = float(np.max(np.diff(t_grid)))
    n_sub = max(4, math.ceil(400.0 * chi * p.peak() * dt_max))
    l1, n1 = _rk4_pass(p, chi, t_grid, n_sub)
    l2, n2 = _rk4_pass(p, chi, t_grid, 2 * n_sub)
    err = max(float(np.max(np.abs(coarse - fine) / np.maximum(1.0, np.abs(fine))))
              for coarse, fine in ((l1, l2), (n1, n2)))
    if err > _ODE_TOL:
        raise StepSizeError(
            f"step-halving error estimate {err:.3e} exceeds {_ODE_TOL:.0e} * max(1, |value|)"
        )
    return ModelTrajectory(t_grid, None, l2, n2, "ode")
