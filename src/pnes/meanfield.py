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
        if self.variant == "constant":
            return self.a if t >= 0 else 0.0
        if self.variant == "rectangular":
            return self.a if 0 <= t <= self.T else 0.0
        if self.variant == "gaussian":
            z = (t - self.t_center) / self.width
            return self.a * math.exp(-0.5 * z * z)
        # sampled: zero before the support, error past it
        if t > self.times[-1]:
            raise ExtrapolationError(
                f"sampled profile queried at t={t} past its support end {self.times[-1]}"
            )
        if t < self.times[0]:
            return 0.0
        return float(np.interp(t, self.times, self.values))

    def peak(self):
        if self.variant == "sampled":
            return float(np.max(np.abs(self.values)))
        return abs(self.a)

    def breakpoints(self):
        """Times where the profile is discontinuous (integration split points)."""
        if self.variant == "constant":
            return (0.0,)
        if self.variant == "rectangular":
            return (0.0, self.T)
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


def _rk4_piece(a_fn, chi, t0, t1, lam, n, n_sub):
    h = (t1 - t0) / n_sub
    t = t0

    def rhs(t, lam, n):
        a = a_fn(t)
        return chi * (n + 1.0) * a, 4.0 * chi * lam * a

    for _ in range(n_sub):
        k1l, k1n = rhs(t, lam, n)
        k2l, k2n = rhs(t + 0.5 * h, lam + 0.5 * h * k1l, n + 0.5 * h * k1n)
        k3l, k3n = rhs(t + 0.5 * h, lam + 0.5 * h * k2l, n + 0.5 * h * k2n)
        k4l, k4n = rhs(t + h, lam + h * k3l, n + h * k3n)
        lam += h / 6.0 * (k1l + 2.0 * k2l + 2.0 * k3l + k4l)
        n += h / 6.0 * (k1n + 2.0 * k2n + 2.0 * k3n + k4n)
        t += h
    return lam, n


def _rk4_pass(p, chi, t_grid, n_sub):
    lam, n = 0.0, 0.0
    out_l = [lam]
    out_n = [n]
    piecewise_const = p.variant in ("constant", "rectangular")
    breaks = p.breakpoints()
    for i in range(len(t_grid) - 1):
        t0, t1 = float(t_grid[i]), float(t_grid[i + 1])
        # split at profile discontinuities so every rk4 step sees a smooth rhs
        edges = [t0] + [b for b in breaks if t0 < b < t1] + [t1]
        for lo, hi in zip(edges[:-1], edges[1:]):
            if piecewise_const:
                a_mid = p.amplitude(0.5 * (lo + hi))
                a_fn = lambda t, a=a_mid: a
            else:
                a_fn = p.amplitude
            lam, n = _rk4_piece(a_fn, chi, lo, hi, lam, n, n_sub)
        out_l.append(lam)
        out_n.append(n)
    return np.asarray(out_l), np.asarray(out_n)


def integrate_model(p, chi, t_grid, assume_zero_initial=False):
    """RK4 integration of the state-parameter system from (Lambda, N) = (0, 0).

    The first grid point must precede the pump (a(t0) < 1e-14) unless
    assume_zero_initial declares the vacuum start explicitly.  Accuracy is
    verified by step halving; disagreement above 1e-8 raises StepSizeError.
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
    err = max(float(np.max(np.abs(l1 - l2))), float(np.max(np.abs(n1 - n2))))
    if err > _ODE_TOL:
        raise StepSizeError(
            f"step-halving error estimate {err:.3e} exceeds {_ODE_TOL:.0e}"
        )
    return ModelTrajectory(t_grid, None, l2, n2, "ode")
