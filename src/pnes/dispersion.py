"""Pair-quadrature dispersion rates: exact simulation vs mean-field model.

For a coherent pump of amplitude alpha and a pair state of the TWB or TMC
family, four values of dD_{C+}/dt at t = 0 are assembled per point:

  rate_exact        the full quantum rate, 2 chi (Re<C+ K Q> - <C+><K Q>)
                    with K = [A, A+] and Q = a0 + a0+, a moment of the
                    state (``observables.disp_plus_rate``), no time evolution
  rate_analytic_exact  closed form: 8 chi alpha x(1+x^2)/(1-x^2)^2 for TWB,
                    8 chi lambda alpha for TMC
  rate_analytic_model  model side: same expression for TWB, 4 chi lambda alpha
                    for TMC (the factor-2 mismatch that ranks the model)
  rate_diag_simple  the literal 2 chi <Q><C+> product, kept as a diagnostic
                    only: it reproduces the TMC value but not the TWB one

Ground truth is rate_exact; it depends only on the commutator
[C+, G] = chi K Q of the truncated operators and the state constructors.  Each
point's state is ``states.initial_state`` on ``default_truncation``'s box:
the family's smallest cutoff plus two pair levels.  ``analytic_rate``,
``model_rate_from_trajectory`` and ``build_report`` raise NumericalError, all
with one message, when a rate overflows float64.  ``exact_rate_fd`` gets
rate_exact independently, by Richardson finite differences of D_{C+} on four
exact states, at +-h/2 and +-h, read from two ``propagator.evolve`` runs; it is
kept as the oracle the tests check ``build_report`` against, and no report
uses it.
"""

import math
from typing import NamedTuple

from .errors import NoisyDerivativeError, NumericalError, ValidationError
from .fock import HamiltonianParams, TruncationConfig
from .observables import disp_plus_rate, measure
from .states import PAIR_FAMILIES, check_alpha, check_param, initial_state, pump_dimension

FAMILIES = ("twb", "tmc")  # the families with closed-form rates


class DispersionReport(NamedTuple):
    family: str
    param: float
    chi: float
    alpha: float
    rate_exact: float
    rate_analytic_exact: float
    rate_analytic_model: float
    rate_model_traj: float
    rate_diag_simple: float
    rel_err_exact: float  # NaN when the closed form vanishes
    model_exact_ratio: float  # NaN when the model rate vanishes
    ratios_defined: bool


def _check_point(family, param, chi, alpha):
    """Each input by the check of the module that owns it."""
    if family not in FAMILIES:
        raise ValidationError(f"family must be one of {FAMILIES}, got {family!r}")
    check_param(family, param)
    HamiltonianParams(chi)
    check_alpha(alpha)


def _finite(rate, family, param, chi, alpha):
    """``rate`` itself, or NumericalError when it overflows float64."""
    if not math.isfinite(rate):
        raise NumericalError(f"the dispersion rates of {family} parameter {param!r} at "
                             f"chi={chi!r} and alpha={alpha!r} overflow float64")
    return rate


def analytic_rate(family, side, param, chi, alpha):
    """Closed-form dD_{C+}/dt endpoints for the two state families."""
    _check_point(family, param, chi, alpha)
    if side not in ("exact", "model"):
        raise ValidationError(f"side must be 'exact' or 'model', got {side!r}")
    if family == "twb":
        x = param
        rate = 8.0 * chi * alpha * x * (1.0 + x * x) / (1.0 - x * x) ** 2
    else:
        rate = (8.0 if side == "exact" else 4.0) * chi * param * alpha
    return _finite(rate, family, param, chi, alpha)


def model_rate_from_trajectory(family, param, chi, alpha):
    """Model-side rate by the chain rule along the state-parameter flow.

    TWB: D(x) = ((1+x^2)/(1-x^2))^2 differentiated along dx/dt = chi a (1-x^2)
    (from x = tanh tau).  TMC: D = N + 1 along dN/dt = 4 chi Lambda a with
    Lambda = lambda.
    """
    _check_point(family, param, chi, alpha)
    if family == "twb":
        x = param
        dD_dx = 8.0 * x * (1.0 + x * x) / (1.0 - x * x) ** 3
        dx_dt = chi * alpha * (1.0 - x * x)
        rate = dD_dx * dx_dt
    else:
        rate = 4.0 * chi * param * alpha
    return _finite(rate, family, param, chi, alpha)


def default_truncation(family, param, alpha):
    """Cutoffs holding constructor tails below 1e-12 with a margin of two pair levels."""
    d0 = pump_dimension(alpha)
    d = PAIR_FAMILIES[family][1](param) + 2
    return TruncationConfig(d0, d, d)


def _make_state(family, param, alpha):
    """``states.initial_state`` on the ``default_truncation`` box."""
    trunc = default_truncation(family, param, alpha)
    return initial_state(family, param, alpha, trunc.d0, trunc.d1)


def exact_rate_fd(family, param, chi, alpha):
    """Finite-difference dD_{C+}/dt at t=0 on coherent(alpha) x family(param).

    Central differences with steps h and h/2 are combined to fourth order, with
    h = 1e-3 / (chi * max(1, |<a0>|, <N>)); the four states, at +-h/2 and +-h, are
    the records of two two-step ``evolve`` runs, of dt = h/2 and -h/2, so h is
    refused as ``EvolutionSpec`` refuses dt (ValidationError).  Raises
    NoisyDerivativeError, carrying both estimates, when their error estimate
    |d(h/2) - d(h)| / 3 exceeds 1e-4 * max(1, |rate|); 0.0 at chi = 0.
    """
    from .propagator import EvolutionSpec, evolve  # so that a scan never loads the propagator

    _check_point(family, param, chi, alpha)
    s0, params = _make_state(family, param, alpha), HamiltonianParams(chi)
    if chi == 0.0:
        return 0.0
    o = measure(s0)
    h = 1e-3 / (chi * max(1.0, abs(o.pump_amp), o.total_n))
    plus, minus = ([r.disp_plus for r in evolve(s0, EvolutionSpec(params, dt, 2)).observables]
                   for dt in (h / 2.0, -h / 2.0))  # D at t = 0, +-h/2 and +-h
    d_h = (plus[2] - minus[2]) / (2.0 * h)
    d_h2 = (plus[1] - minus[1]) / h
    rich = (4.0 * d_h2 - d_h) / 3.0
    if abs(d_h2 - d_h) / 3.0 > 1e-4 * max(1.0, abs(rich)):
        raise NoisyDerivativeError(
            f"finite-difference estimates disagree: {d_h!r} (h) vs {d_h2!r} (h/2)", d_h, d_h2)
    return rich


def diagnostic_simple_rate(s, chi):
    """Literal 2 chi <Q> <C+>; matches TMC but not TWB, reported only."""
    o = measure(s)
    return 2.0 * chi * o.pump_quad * o.c_plus


def build_report(family, param, chi, alpha):
    """One comparison point: all four rates plus discrepancy metrics.

    rate_exact is ``observables.disp_plus_rate`` of the point's state, built on the
    sector layout once for it and for the diagnostic.  NumericalError when a rate
    overflows float64; ``ratios_defined`` says whether both ratios are finite.
    """
    _check_point(family, param, chi, alpha)
    s0 = _make_state(family, param, alpha)
    rate = _finite(disp_plus_rate(s0, chi), family, param, chi, alpha)
    p_exact = analytic_rate(family, "exact", param, chi, alpha)
    p_model = analytic_rate(family, "model", param, chi, alpha)
    m_traj = model_rate_from_trajectory(family, param, chi, alpha)
    diag = _finite(diagnostic_simple_rate(s0, chi), family, param, chi, alpha)
    rel = abs(rate - p_exact) / abs(p_exact) if p_exact != 0.0 else math.nan
    ratio = rate / m_traj if m_traj != 0.0 else math.nan
    return DispersionReport(
        family=family,
        param=param,
        chi=chi,
        alpha=alpha,
        rate_exact=rate,
        rate_analytic_exact=p_exact,
        rate_analytic_model=p_model,
        rate_model_traj=m_traj,
        rate_diag_simple=diag,
        rel_err_exact=rel,
        model_exact_ratio=ratio,
        ratios_defined=math.isfinite(rel) and math.isfinite(ratio),
    )
