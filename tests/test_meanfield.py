import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import rk4_model
from pnes import meanfield
from pnes.errors import ExtrapolationError, NumericalError, ValidationError
from pnes.meanfield import (
    PumpProfile,
    closed_form,
    closed_form_trajectory,
    integrate_model,
    tau_of_t,
    twb_x_from_tau,
)
from pnes.observables import expect_pair_amplitude, expect_total_number
from pnes.states import min_dimension_twb, twb


def gaussian_with_area(area, width, center=0.0):
    return PumpProfile.gaussian(area / (math.sqrt(2 * math.pi) * width), center, width)


# no tiny chi or amplitude: a subnormal N has no relative precision to keep
normal_or_zero = st.floats(0.0, 1.0).map(lambda x: x if x >= 1e-6 else 0.0)


@st.composite
def model_cases(draw):
    """(profile, chi, grid): a random increasing grid, the profile's jumps and kinks
    falling both on grid points and inside grid intervals."""
    steps = draw(st.lists(st.floats(0.05, 0.5), min_size=1, max_size=9))
    grid = np.concatenate(([0.0], np.cumsum(steps)))

    def point(first):  # a grid point at index >= first, or a point inside a later interval
        i = draw(st.integers(first, grid.size - 1))
        if i == grid.size - 1 or draw(st.booleans()):
            return i, float(grid[i])
        return i, float(grid[i] + draw(st.floats(0.1, 0.9)) * (grid[i + 1] - grid[i]))

    variant = draw(st.sampled_from(["constant", "rectangular", "gaussian", "sampled"]))
    amp = draw(normal_or_zero)
    if variant in ("constant", "rectangular"):
        i0, zero = point(0)
        grid = grid - zero  # the pump switches on at a grid point or inside an interval
        if variant == "rectangular" and i0 < grid.size - 1:
            p = PumpProfile.rectangular(amp, point(i0 + 1)[1])
        else:
            p = PumpProfile.constant(amp)
    elif variant == "gaussian":
        width = 10.0 ** draw(st.floats(-1.5, 1.0)) * max(steps)  # far narrower than a step, or wider
        # the grid starts in the far left tail (z from 7 to 14) or near the peak
        z0 = draw(st.one_of(st.floats(7.0, 14.0), st.floats(-1.0, 7.0)))
        p = PumpProfile.gaussian(amp, z0 * width, width)
    else:
        times = sorted({point(0)[1] for _ in range(draw(st.integers(1, 5)))}
                       | {float(grid[-1]) + draw(st.sampled_from([0.0, 0.3]))})
        if len(times) == 1:
            times.insert(0, times[0] - 1.0)
        values = draw(st.lists(st.floats(0.0, 1.0), min_size=len(times), max_size=len(times)))
        p = PumpProfile.sampled(times, values)
    return p, draw(normal_or_zero), grid


class TestPumpProfile:
    def test_rectangular_amplitude(self):
        p = PumpProfile.rectangular(2.0, 1.5)
        assert p.amplitude(-0.1) == 0.0
        assert p.amplitude(0.7) == 2.0
        assert p.amplitude(1.6) == 0.0

    @pytest.mark.parametrize("p", [
        PumpProfile.constant(0.7),
        PumpProfile.rectangular(1.3, 1.0),
        PumpProfile.gaussian(2.0, 0.4, 0.3),
        PumpProfile.sampled([-0.5, 0.25, 1.0], [0.4, 2.0, 0.1]),
    ], ids=lambda p: p.variant)
    def test_array_matches_scalar_calls(self, p):
        t = np.array([-2.0, -0.5, -0.1, 0.0, 0.25, 0.3, 0.77, 1.0])
        a = p.amplitude(t)
        assert isinstance(a, np.ndarray) and a.shape == t.shape
        scalars = [p.amplitude(float(x)) for x in t]
        assert all(type(s) is float for s in scalars)
        assert a.tolist() == scalars

    @pytest.mark.parametrize("width", [1e-200, 1e-307], ids=["square-overflows", "ratio-overflows"])
    def test_far_narrow_gaussian_is_zero_without_a_warning(self, width):
        # z = (t - 100) / width or z * z overflows to inf, and exp(-inf / 2) = 0
        p = PumpProfile.gaussian(1.0, 100.0, width)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert p.amplitude(np.array([-1.0, 0.0, 1.0])).tolist() == [0.0, 0.0, 0.0]
            assert p.amplitude(1.0) == 0.0

    def test_sampled_array_past_support_raises(self):
        p = PumpProfile.sampled([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(ExtrapolationError):
            p.amplitude(np.array([0.5, 1.0, 1.5]))

    def test_sampled_interpolates(self):
        p = PumpProfile.sampled([0.0, 1.0, 2.0], [0.0, 2.0, 0.0])
        assert p.amplitude(0.5) == pytest.approx(1.0)
        assert p.amplitude(-3.0) == 0.0

    def test_sampled_extrapolation_error(self):
        p = PumpProfile.sampled([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(ExtrapolationError):
            p.amplitude(1.5)

    def test_sampled_requires_increasing_times(self):
        with pytest.raises(ValidationError):
            PumpProfile.sampled([0.0, 0.0, 1.0], [1.0, 1.0, 1.0])

    def test_sampled_profiles_compare_and_hash_by_value(self):
        p = PumpProfile.sampled([0, 1], [0, 1])
        q = PumpProfile.sampled(np.array([0.0, 1.0]), (0.0, 1.0))
        assert p == q and hash(p) == hash(q)
        assert p != PumpProfile.sampled([0, 1], [0, 2])
        assert p == ("sampled", 0.0, 0.0, 0.0, 0.0, (0.0, 1.0), (0.0, 1.0))
        assert all(type(v) is float for v in p.times + p.values)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValidationError):
            PumpProfile.rectangular(1.0, -2.0)
        with pytest.raises(ValidationError):
            PumpProfile.gaussian(1.0, 0.0, 0.0)
        with pytest.raises(ValidationError):
            PumpProfile.constant(float("inf"))

    @pytest.mark.parametrize("args, kwargs, match", [
        (("sawtooth",), {"a": 1.0}, "unknown profile 'sawtooth'"),
        (("constant",), {"a": float("nan")}, "amplitude must be finite"),
        (("rectangular",), {"a": 1.0, "T": -1.0}, "duration must be > 0"),
        (("gaussian",), {"a": 1.0, "t_center": math.inf, "width": 1.0}, "center must be finite"),
        (("sampled",), {}, "needs matching 1-d times/values"),
        (("sampled",), {"times": [0.0, 1.0], "values": [0.0, math.nan]}, "must be finite"),
    ], ids=["unknown", "nan-amplitude", "negative-duration", "infinite-center", "no-samples",
            "nan-sample"])
    def test_constructor_checks(self, args, kwargs, match):
        with pytest.raises(ValidationError, match=match):
            PumpProfile(*args, **kwargs)

    def test_constant_is_an_endless_rectangle(self):
        p = PumpProfile.constant(0.7)
        assert p == PumpProfile("constant", a=0.7, T=5.0)
        assert p.T == math.inf
        t = np.array([-1.0, 0.0, 1e300])
        assert p.amplitude(t).tolist() == [0.0, 0.7, 0.7]
        assert [tau_of_t(p, 2.0, x) for x in t] == [0.0, 0.0, 1.4 * 1e300]


class TestTauOfT:
    def test_rectangular_piecewise(self):
        p = PumpProfile.rectangular(1.0, 2.0)
        chi = 0.1
        assert tau_of_t(p, chi, -1.0) == 0.0
        assert tau_of_t(p, chi, 0.75) == pytest.approx(chi * 1.0 * 0.75, abs=1e-15)
        assert tau_of_t(p, chi, 2.0) == pytest.approx(0.2, abs=1e-15)
        assert tau_of_t(p, chi, 5.0) == pytest.approx(0.2, abs=1e-15)

    def test_constant_ramp(self):
        p = PumpProfile.constant(2.0)
        assert tau_of_t(p, 0.5, -1.0) == 0.0
        assert tau_of_t(p, 0.5, 3.0) == pytest.approx(3.0)

    def test_gaussian_total_area(self):
        p = gaussian_with_area(2.0, 0.3, center=1.0)
        assert tau_of_t(p, 1.0, 10.0) == pytest.approx(2.0, abs=1e-11)

    def test_gaussian_half_area_at_center(self):
        p = gaussian_with_area(2.0, 0.5, center=0.0)
        assert tau_of_t(p, 1.0, 0.0) == pytest.approx(1.0, abs=1e-11)

    def test_sampled_triangle(self):
        p = PumpProfile.sampled([0.0, 1.0, 2.0], [0.0, 2.0, 0.0])
        assert tau_of_t(p, 1.0, 2.0) == pytest.approx(2.0, abs=1e-11)

    def test_sampled_mid_segment_both_sides_of_kink(self):
        p = PumpProfile.sampled([0.0, 1.0, 2.0], [0.0, 2.0, 0.0])
        assert tau_of_t(p, 1.0, 0.5) == pytest.approx(0.25, abs=1e-15)
        assert tau_of_t(p, 1.0, 1.5) == pytest.approx(1.75, abs=1e-15)

    def test_sampled_past_support_raises(self):
        p = PumpProfile.sampled([0.0, 1.0], [0.0, 1.0])
        for t in (1.5, np.array([0.5, 1.5, 0.25])):
            with pytest.raises(ExtrapolationError, match="t=1.5"):
                tau_of_t(p, 1.0, t)

    def test_gaussian_deep_tail_matches_asymptotic_series(self):
        chi, a, c, w, z = 0.3, 1.7, 2.0, 0.5, 20.0
        p = PumpProfile.gaussian(a, c, w)
        series = chi * a * w * math.exp(-0.5 * z * z) / z * (1 - z**-2 + 3 * z**-4 - 15 * z**-6)
        tau = tau_of_t(p, chi, c - z * w)
        assert tau > 0.0
        assert tau == pytest.approx(series, rel=1e-8)

    def test_far_past_is_zero(self):
        for p in (PumpProfile.rectangular(1.0, 1.0), gaussian_with_area(1.0, 0.2)):
            assert tau_of_t(p, 1.0, -1e6) == 0.0

    @pytest.mark.parametrize("p, ulps", [
        (PumpProfile.constant(0.7), 0),
        (PumpProfile.rectangular(1.3, 1.0), 0),
        (PumpProfile.gaussian(1.0, 1.0, 0.3), 0),
        (PumpProfile.sampled([0.25, 0.5, 1.25, 2.0], [1.0, -0.5, 0.4, 0.4]), 2),
    ], ids=["constant", "rectangular", "gaussian", "sampled"])
    def test_array_matches_per_point_calls(self, p, ulps):
        # before the pump, on every breakpoint, inside pieces, and on the last sample
        grid = np.concatenate((np.linspace(-0.5, 2.0, 41), [0.3, 1.0 / 3.0, 1.9]))
        got = tau_of_t(p, 0.4, grid)
        want = np.array([tau_of_t(p, 0.4, float(t)) for t in grid])
        assert got.shape == grid.shape and type(tau_of_t(p, 0.4, 0.5)) is float
        assert np.all(np.abs(got - want) <= ulps * np.spacing(np.abs(want)))
        assert tau_of_t(p, 0.4, grid.reshape(4, 11)).tolist() == got.reshape(4, 11).tolist()


class TestClosedForm:
    def test_zero(self):
        assert closed_form(0.0) == (0.0, 0.0)

    def test_reference_point(self):
        lam, n = closed_form(0.5)
        assert lam == pytest.approx(math.sinh(0.5) * math.cosh(0.5))
        assert lam == pytest.approx(0.587600, abs=1e-6)
        assert n == pytest.approx(0.543081, abs=1e-6)

    def test_first_integral_identity(self):
        for tau in np.linspace(-2.0, 2.0, 41):
            lam, n = closed_form(tau)
            assert n == pytest.approx(math.sqrt(1 + 4 * lam * lam) - 1, abs=1e-10)

    def test_array_matches_scalar_calls(self):
        tau = np.linspace(-2.0, 2.0, 9)
        lam, n = closed_form(tau)
        assert [lam.tolist(), n.tolist()] == [list(v) for v in zip(*map(closed_form, tau))]

    @pytest.mark.parametrize("tau", [math.nan, math.inf, [0.5, -math.inf]],
                             ids=["nan", "inf", "array"])
    def test_rejects_non_finite_tau(self, tau):
        with pytest.raises(ValidationError, match="tau must be finite"):
            closed_form(tau)

    @pytest.mark.parametrize("tau", [400.0, -400.0, [0.5, 356.0]], ids=["400", "-400", "array"])
    def test_overflow_is_a_numerical_error(self, tau):
        # sinh(tau) cosh(tau) passes float64's largest value near |tau| = 355.3;
        # pytest turns the RuntimeWarning of an unguarded overflow into an error
        with pytest.raises(NumericalError, match="overflows float64"):
            closed_form(tau)


class TestIntegrateModel:
    def test_zero_coupling(self):
        p = PumpProfile.rectangular(1.0, 1.0)
        traj = integrate_model(p, 0.0, np.linspace(-0.5, 2.0, 20))
        assert np.all(traj.Lambda == 0)
        assert np.all(traj.N == 0)

    def test_matches_closed_form_rectangular(self):
        p = PumpProfile.rectangular(1.0, 2.0)
        grid = np.linspace(-0.25, 2.5, 56)
        ode = integrate_model(p, 0.1, grid)
        cf = closed_form_trajectory(p, 0.1, grid)
        assert np.max(np.abs(ode.Lambda - cf.Lambda)) < 1e-8
        assert np.max(np.abs(ode.N - cf.N)) < 1e-8
        assert ode.Lambda[-1] == pytest.approx(closed_form(0.2)[0], abs=1e-8)
        assert ode.tau.tobytes() == cf.tau.tobytes()

    def test_matches_closed_form_gaussian(self):
        p = gaussian_with_area(1.5, 0.4, center=1.0)
        grid = np.linspace(-4.0, 5.0, 80)
        ode = integrate_model(p, 1.0, grid)
        cf = closed_form_trajectory(p, 1.0, grid)
        assert np.max(np.abs(ode.Lambda - cf.Lambda)) < 1e-8
        assert np.max(np.abs(ode.N - cf.N)) < 1e-8

    def test_endpoint_depends_only_on_area(self):
        grid = np.linspace(-9.0, 11.0, 200)
        narrow = integrate_model(gaussian_with_area(1.2, 0.2, 1.0), 1.0, grid)
        wide = integrate_model(gaussian_with_area(1.2, 0.8, 1.0), 1.0, grid)
        assert narrow.Lambda[-1] == pytest.approx(wide.Lambda[-1], abs=1e-8)
        assert narrow.N[-1] == pytest.approx(wide.N[-1], abs=1e-8)

    def test_first_integral_along_trajectory(self):
        p = PumpProfile.rectangular(1.0, 2.0)
        traj = integrate_model(p, 0.8, np.linspace(-0.2, 2.4, 66))
        resid = (traj.N + 1) ** 2 - 4 * traj.Lambda**2 - 1
        assert np.max(np.abs(resid)) < 1e-10

    def test_requires_vanishing_start(self):
        p = PumpProfile.rectangular(1.0, 2.0)
        with pytest.raises(ValidationError, match="vanish"):
            integrate_model(p, 0.1, np.linspace(0.5, 2.0, 10))
        integrate_model(p, 0.1, np.linspace(0.5, 2.0, 10), assume_zero_initial=True)

    def test_rejects_unsorted_grid(self):
        p = PumpProfile.rectangular(1.0, 2.0)
        with pytest.raises(ValidationError):
            integrate_model(p, 0.1, np.array([0.0, -1.0, 1.0]), assume_zero_initial=True)

    @pytest.mark.parametrize("end", [math.inf, math.nan], ids=["inf", "nan"])
    def test_rejects_a_non_finite_grid_point(self, end):
        # an infinite point used to reach math.ceil(inf) and raise OverflowError
        with pytest.raises(ValidationError, match="finite"):
            integrate_model(PumpProfile.rectangular(1.0, 2.0), 0.1, [-1.0, end])

    def test_refuses_a_grid_needing_too_many_substeps(self, monkeypatch):
        # the interval's tau span alone sets the count: 400 * 1000 substeps
        def refuse(*args, **kwargs):
            raise AssertionError("the model was integrated")

        monkeypatch.setattr(meanfield, "_rk4_pass", refuse)
        with pytest.raises(ValidationError, match=r"\[-1.0, 1000.0\] takes tau from 0.0 to 1000.0, "
                                                  r"so it needs 4e\+05 RK4 substeps, more than 100000"):
            integrate_model(PumpProfile.constant(1.0), 1.0, [-1.0, 1000.0])

    def test_substeps_follow_a_narrow_gaussian_inside_the_grid(self):
        # RK4 in tau steps over each interval's area, whatever the pulse's shape inside it
        p = PumpProfile.gaussian(1.0, 0.3, 0.01)
        grid = np.array([-1.0, 0.0, 1.0])
        ode, cf = integrate_model(p, 0.1, grid), closed_form_trajectory(p, 0.1, grid)
        assert np.max(np.abs(ode.Lambda - cf.Lambda)) <= 1e-12
        assert np.max(np.abs(ode.N - cf.N)) <= 1e-12

    def test_a_pulse_a_billion_times_narrower_than_the_grid_is_not_refused(self):
        # the substep count follows the pulse's area, tau = 2.5e-10, not its width: 4 substeps
        p = PumpProfile.gaussian(1.0, 0.0, 1e-9)
        grid = np.array([-1.0, 0.0, 1.0])
        ode, cf = integrate_model(p, 0.1, grid), closed_form_trajectory(p, 0.1, grid)
        assert np.all(np.abs(ode.Lambda - cf.Lambda) <= 1e-12 * cf.Lambda)
        assert np.all(np.abs(ode.N - cf.N) <= 1e-12 * cf.N)

    def test_refuses_a_grid_past_the_pump_support_before_any_substep(self, monkeypatch):
        # tau_of_t reads the pump on the grid, so it names the grid's own time
        def refuse(*args, **kwargs):
            raise AssertionError("the model was integrated")

        monkeypatch.setattr(meanfield, "_rk4_pass", refuse)
        p = PumpProfile.sampled([0.0, 1.0], [1.0, 1.0])
        with pytest.raises(ExtrapolationError, match=r"queried at t=1\.5 past its support end 1\.0"):
            integrate_model(p, 0.1, np.linspace(-1.0, 1.5, 3))


@pytest.mark.parametrize("p, grid", [
    (PumpProfile.constant(0.7), np.linspace(-0.25, 2.0, 7)),
    (PumpProfile.rectangular(1.3, 1.0), np.linspace(-0.25, 1.0, 5)),  # switches on at 0, inside
    (PumpProfile.gaussian(1.0, 1.0, 0.3), np.linspace(-11.0, 2.0, 7)),  # erfc underflows at -11
    (PumpProfile.sampled([0.25, 0.5, 2.0], [1.0, 0.0, 0.4]), np.linspace(0.0, 2.0, 5)),
], ids=["constant", "rectangular", "gaussian", "sampled"])
def test_integrator_reads_the_pump_only_through_its_interface(p, grid):
    # the interface is tau_of_t: a unit constant pump at chi = 1 has tau(t) = t from t = 0 on
    tau = tau_of_t(p, 0.4, grid)
    assert tau[0] == 0.0 and np.all(np.diff(tau) > 0)
    want = integrate_model(p, 0.4, grid)
    got = integrate_model(PumpProfile.constant(1.0), 1.0, tau)
    for g, w in ((got.Lambda, want.Lambda), (got.N, want.N)):
        assert g.tobytes() == w.tobytes()


@settings(max_examples=40, deadline=None)
@given(model_cases())
def test_integrate_model_matches_scalar_rk4(case):
    # the oracle reads a(t) in t, so it checks tau_of_t too; the tolerance is four times
    # its own step-halving change plus the integrator's distance from the closed form of
    # its tau, and a few ulps
    p, chi, grid = case
    ode = integrate_model(p, chi, grid, assume_zero_initial=True)
    cf = closed_form(ode.tau - ode.tau[0])
    coarse, (lam, n) = rk4_model(p, chi, grid, 2048), rk4_model(p, chi, grid, 4096)
    for got, want, half, exact in zip((ode.Lambda, ode.N), (lam, n), coarse, cf):
        scale = np.maximum(1.0, np.abs(want))
        run = np.max((np.abs(half - want) + np.abs(got - exact)) / scale)
        tol = 4.0 * run + 16.0 * np.finfo(float).eps
        assert np.all(np.abs(got - want) <= tol * scale)
    # the pump's tail: N keeps its relative precision, it does not cancel to 0
    tail = (n > 0) & (n < 1e-20)
    for got, want in ((ode.Lambda[tail], lam[tail]), (ode.N[tail], n[tail])):
        assert np.all(np.abs(got - want) <= 1e-9 * np.abs(want))


def test_scalar_rk4_sees_no_jump_before_the_first_sample():
    # a(t) is 0 before t = 0.25 and 1 from there; the piece [0, 0.25] ends on the jump
    p = PumpProfile.sampled([0.25, 0.5, 1.0], [1.0, 0.0, 0.0])
    grid = np.array([0.0, 0.5, 1.0])
    lam, n = rk4_model(p, 1.0, grid, 400)
    cf = closed_form_trajectory(p, 1.0, grid)
    assert np.max(np.abs(lam - cf.Lambda)) <= 1e-12
    assert np.max(np.abs(n - cf.N)) <= 1e-12


def test_gaussian_tail_keeps_relative_precision():
    p = PumpProfile.gaussian(1.0, 5.0, 1.0)
    grid = np.linspace(-10.0, 10.0, 800)
    ode = integrate_model(p, 0.3, grid)
    lam, n = rk4_model(p, 0.3, grid, 64)  # RK4 in t: 3e-9 off at 8 substeps, 1.6e-12 at 64
    tail = n < 1e-20
    assert np.count_nonzero(tail) > 200 and np.all(n[1:] > 0)
    assert np.all(np.abs(ode.N[tail] - n[tail]) <= 1e-9 * n[tail])
    assert np.all(np.abs(ode.Lambda[tail] - lam[tail]) <= 1e-9 * lam[tail])


class TestTwbEmbedding:
    def test_zero(self):
        assert twb_x_from_tau(0.0) == 0.0

    def test_reference_value(self):
        assert twb_x_from_tau(0.5) == pytest.approx(0.462117, abs=1e-6)

    @pytest.mark.parametrize("tau", [0.25, 0.5, 1.0])
    def test_twb_state_realizes_model_solution(self, tau):
        x = twb_x_from_tau(tau)
        d = min_dimension_twb(x) + 4
        s = twb(x, d)
        lam, n = closed_form(tau)
        assert expect_pair_amplitude(s).real == pytest.approx(lam, abs=1e-10)
        assert expect_total_number(s) == pytest.approx(n, abs=1e-10)
