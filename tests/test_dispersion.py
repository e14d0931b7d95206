import math
import warnings

import numpy as np
import pytest

import pnes.kernels
import pnes.propagator
from pnes.dispersion import (
    build_report,
    default_truncation,
    diagnostic_simple_rate,
    exact_rate_fd,
    model_rate_from_trajectory,
    analytic_rate,
)
from pnes.errors import NoisyDerivativeError, NumericalError, ValidationError
from pnes.observables import disp_plus_rate
from pnes.states import coherent, initial_state, product_state, tmc, twb


class TestAnalyticRate:
    def test_twb_point(self):
        want = 8 * 0.1 * 2 * 0.5 * 1.25 / 0.5625
        assert analytic_rate("twb", "exact", 0.5, 0.1, 2.0) == pytest.approx(want)
        assert analytic_rate("twb", "model", 0.5, 0.1, 2.0) == pytest.approx(want)
        assert want == pytest.approx(16 / 9)

    def test_tmc_factor_two(self):
        assert analytic_rate("tmc", "exact", 0.8, 0.05, 3.0) == pytest.approx(0.96)
        assert analytic_rate("tmc", "model", 0.8, 0.05, 3.0) == pytest.approx(0.48)

    def test_vacuum_parameter(self):
        for family in ("twb", "tmc"):
            for side in ("exact", "model"):
                assert analytic_rate(family, side, 0.0, 0.1, 1.0) == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            analytic_rate("twb", "exact", 1.0, 0.1, 1.0)
        with pytest.raises(ValidationError):
            analytic_rate("twb", "nope", 0.5, 0.1, 1.0)
        with pytest.raises(ValidationError):
            analytic_rate("squeezed", "exact", 0.5, 0.1, 1.0)


class TestModelRateFromTrajectory:
    def test_twb_model_side_equals_exact_side(self):
        got = model_rate_from_trajectory("twb", 0.5, 0.1, 2.0)
        assert got == pytest.approx(analytic_rate("twb", "model", 0.5, 0.1, 2.0), abs=1e-12)

    def test_tmc_value(self):
        assert model_rate_from_trajectory("tmc", 0.8, 0.05, 3.0) == pytest.approx(0.48, abs=1e-12)

    def test_small_parameter_slopes(self):
        # rate/param -> 8 chi alpha (twb) and 4 chi alpha (tmc)
        chi, alpha, eps = 0.1, 1.0, 1e-7
        assert model_rate_from_trajectory("twb", eps, chi, alpha) / eps == pytest.approx(
            8 * chi * alpha, rel=1e-6
        )
        assert model_rate_from_trajectory("tmc", eps, chi, alpha) / eps == pytest.approx(
            4 * chi * alpha, rel=1e-12
        )


class TestExactRateFd:
    def test_twb_matches_analytic_rate(self):
        got = exact_rate_fd("twb", 0.3, 0.1, 1.0)
        want = 8 * 0.1 * 1.0 * 0.3 * 1.09 / 0.8281
        assert want == pytest.approx(0.31590, abs=5e-6)
        assert got == pytest.approx(want, rel=1e-3)

    def test_tmc_matches_analytic_rate(self):
        assert exact_rate_fd("tmc", 0.5, 0.1, 1.0) == pytest.approx(0.4, rel=1e-3)

    def test_zero_coupling(self):
        assert exact_rate_fd("twb", 0.3, 0.0, 1.0) == 0.0

    def test_never_builds_the_dense_grid(self, monkeypatch):
        want = exact_rate_fd("twb", 0.4, 0.1, 2.0)

        def refuse(*args, **kwargs):
            raise AssertionError("exact_rate_fd scattered a state to the dense grid")

        monkeypatch.setattr(pnes.kernels, "scatter", refuse)
        assert exact_rate_fd("twb", 0.4, 0.1, 2.0) == want

    def test_linearity_in_chi_and_alpha(self):
        base = exact_rate_fd("tmc", 0.5, 0.05, 1.0)
        assert exact_rate_fd("tmc", 0.5, 0.10, 1.0) == pytest.approx(2 * base, rel=1e-6)
        assert exact_rate_fd("tmc", 0.5, 0.05, 2.0) == pytest.approx(2 * base, rel=1e-6)

    def test_reads_its_four_states_from_two_evolve_runs(self, monkeypatch):
        runs, evolve = [], pnes.propagator.evolve

        def counting(s0, spec):
            runs.append(spec)
            return evolve(s0, spec)

        monkeypatch.setattr(pnes.propagator, "evolve", counting)
        exact_rate_fd("twb", 0.4, 0.1, 2.0)
        assert [(spec.steps, spec.record_every) for spec in runs] == [(2, 1), (2, 1)]
        assert runs[0].dt == -runs[1].dt > 0

    def test_noisy_derivative_raises_with_both_estimates(self, monkeypatch):
        evolve = pnes.propagator.evolve

        def kinked(s0, spec):
            # D = cbrt(t) has no derivative at t = 0: the h and h/2 estimates cannot agree
            traj = evolve(s0, spec)
            return traj._replace(observables=[o._replace(disp_plus=float(np.cbrt(t)))
                                              for o, t in zip(traj.observables, traj.times)])

        monkeypatch.setattr(pnes.propagator, "evolve", kinked)
        with pytest.raises(NoisyDerivativeError) as err:
            exact_rate_fd("tmc", 0.5, 0.1, 1.0)
        assert err.value.estimate_h != err.value.estimate_h2

    @pytest.mark.parametrize("chi", [5e-324, 3e307], ids=["tiny-chi", "huge-chi"])
    def test_a_step_evolve_refuses_is_a_validation_error(self, chi):
        # at the tiny chi h = 1e-3 / (chi max(1, |<a0>|, <N>)) is inf; at the huge one
        # chi overflows EvolutionSpec's bound on the phases.  Both used to reach numpy:
        # nan after a warning, and an SVD that did not converge.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError):
                exact_rate_fd("twb", 0.5, chi, 1.0)


# the points of the two benchmark scans, perfbench/configs/scan_{twb,tmc}.cfg
SCAN_GRID = [
    (family, param, chi, alpha)
    for family, params in (("twb", (0.2, 0.4, 0.6)), ("tmc", (0.5, 1.0, 2.0)))
    for param in params
    for chi in (0.05, 0.1)
    for alpha in (1.0, 2.0, 4.0)
]


class TestExactRate:
    """``build_report``'s rate_exact, the moment from [C+, G]."""

    @pytest.mark.parametrize("family,param,chi,alpha", SCAN_GRID)
    def test_agrees_with_finite_differences(self, family, param, chi, alpha):
        got = build_report(family, param, chi, alpha).rate_exact
        assert got == pytest.approx(exact_rate_fd(family, param, chi, alpha), rel=1e-9)

    def test_is_the_report_column(self):
        # the moment of the state on the default box: coherent(2) x twb(0.4)
        trunc = default_truncation("twb", 0.4, 2.0)
        s0 = initial_state("twb", 0.4, 2.0, trunc.d0, trunc.d1)
        assert build_report("twb", 0.4, 0.1, 2.0).rate_exact == disp_plus_rate(s0, 0.1)

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            build_report("twb", 1.0, 0.1, 1.0)


class TestDiagnosticSimpleRate:
    def test_tmc_agreement(self):
        lam, chi, alpha = 0.8, 0.1, 1.5
        trunc = default_truncation("tmc", lam, alpha)
        s = product_state(coherent(alpha, trunc.d0), tmc(lam, trunc.d1))
        assert diagnostic_simple_rate(s, chi) == pytest.approx(8 * chi * lam * alpha, rel=1e-9)

    def test_twb_known_disagreement(self):
        x, chi, alpha = 0.4, 0.1, 1.0
        trunc = default_truncation("twb", x, alpha)
        s = product_state(coherent(alpha, trunc.d0), twb(x, trunc.d1))
        simple = diagnostic_simple_rate(s, chi)
        assert simple == pytest.approx(8 * chi * alpha * x / (1 - x * x), rel=1e-9)
        factor = analytic_rate("twb", "exact", x, chi, alpha) / simple
        assert factor == pytest.approx((1 + x * x) / (1 - x * x), rel=1e-9)

    def test_vacuum_pump(self):
        s = twb(0.4, 20)
        assert diagnostic_simple_rate(s, 0.1) == 0.0


class TestBuildReport:
    def test_twb_ratio_is_one(self):
        rep = build_report("twb", 0.4, 0.1, 1.0)
        assert rep.model_exact_ratio == pytest.approx(1.0, abs=1e-3)
        assert rep.rel_err_exact < 1e-3
        assert rep.ratios_defined

    def test_tmc_ratio_is_two(self):
        rep = build_report("tmc", 1.0, 0.1, 1.0)
        assert rep.model_exact_ratio == pytest.approx(2.0, abs=2e-3)
        assert rep.rate_analytic_model == pytest.approx(rep.rate_model_traj, abs=1e-10)

    def test_vacuum_parameter_flags_ratios(self):
        rep = build_report("twb", 0.0, 0.1, 1.0)
        assert not rep.ratios_defined
        assert math.isnan(rep.rel_err_exact)
        assert math.isnan(rep.model_exact_ratio)
        assert abs(rep.rate_exact) < 1e-9

    def test_diagnostic_columns_consistent(self):
        rep = build_report("tmc", 0.5, 0.1, 1.0)
        assert rep.rate_diag_simple == pytest.approx(rep.rate_exact, rel=1e-3)

    @pytest.mark.parametrize("chi", [3e307, 1e308])
    def test_overflowing_rate_is_a_numerical_error(self, chi):
        # rate_exact overflows; at 3e307 it used to warn in numpy, at 1e308 silently
        with pytest.raises(NumericalError, match="overflow float64"):
            build_report("twb", 0.5, chi, 1.0)

    def test_largest_rates_stay_finite(self):
        rep = build_report("twb", 0.5, 1e307, 1.0)
        assert all(math.isfinite(v) for v in rep[4:11])
        assert rep.ratios_defined

    @pytest.mark.parametrize("family, param, chi", [
        ("twb", 0.4, 0.1), ("tmc", 0.5, 0.1), ("twb", 0.0, 0.1), ("tmc", 0.0, 0.1),
        ("twb", 0.4, 0.0), ("twb", 0.5, 5e-324),
    ])
    def test_ratios_defined_means_both_ratios_finite(self, family, param, chi):
        rep = build_report(family, param, chi, 1.0)
        assert rep.ratios_defined == (math.isfinite(rep.rel_err_exact)
                                      and math.isfinite(rep.model_exact_ratio))


_RATES = {
    "analytic_rate-exact": lambda f, p, c, a: analytic_rate(f, "exact", p, c, a),
    "analytic_rate-model": lambda f, p, c, a: analytic_rate(f, "model", p, c, a),
    "model_rate_from_trajectory": model_rate_from_trajectory,
}


@pytest.mark.parametrize("family, param, alpha", [("twb", 0.5, 1.0), ("tmc", 1.0, 2.0)])
@pytest.mark.parametrize("rate", list(_RATES.values()), ids=list(_RATES))
def test_each_rate_refuses_to_overflow_as_build_report_does(rate, family, param, alpha):
    # every rate here is about 9 to 16 chi: inf at chi = 3e307, finite at 1e307
    with pytest.raises(NumericalError) as want:
        build_report(family, param, 3e307, alpha)
    with pytest.raises(NumericalError) as got:
        rate(family, param, 3e307, alpha)
    assert str(got.value) == str(want.value)
    assert math.isfinite(rate(family, param, 1e307, alpha))


class TestDefaultTruncation:
    def test_tails_hold(self):
        trunc = default_truncation("twb", 0.6, 2.0)
        twb(0.6, trunc.d1)  # constructible under the tolerance
        assert trunc.d0 >= 26

    def test_tmc(self):
        trunc = default_truncation("tmc", 1.0, 1.0)
        tmc(1.0, trunc.d1)
