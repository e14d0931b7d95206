"""Pair-quadrature dispersion rates: exact simulation vs mean-field model.

For a coherent pump of amplitude alpha and a pair state of the TWB or TMC
family, four values of dD_{C+}/dt at t = 0 are assembled per point:

  rate_exact        the full quantum rate from the equation of motion
                    psi' = G psi (``observables.disp_plus_rate``): one
                    application of the generator, no time evolution
  rate_analytic_exact  closed form: 8 chi alpha x(1+x^2)/(1-x^2)^2 for TWB,
                    8 chi lambda alpha for TMC
  rate_analytic_model  model side: same expression for TWB, 4 chi lambda alpha
                    for TMC (the factor-2 mismatch that ranks the model)
  rate_diag_simple  the literal 2 chi <Q><C+> product, kept as a diagnostic
                    only: it reproduces the TMC value but not the TWB one

Ground truth is the equation-of-motion rate; it depends only on the
interaction generator, the truncated C+ and the state constructors.
``exact_rate_fd`` gets the same number independently, by Richardson finite
differences of short evolutions (``propagator.rate_of``); it is kept as the
oracle the tests check ``exact_rate`` against, and no report uses it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .fock import HamiltonianParams, TruncationConfig
from .kernels import gather
from .observables import disp_plus_rate, measure
from .propagator import rate_of
from .states import (
    coherent,
    min_dimension_tmc,
    min_dimension_twb,
    product_state,
    pump_dimension,
    tmc,
    twb,
)

FAMILIES = ("twb", "tmc")


@dataclass
class DispersionReport:
    state_family: str
    state_param: float
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
    if family not in FAMILIES:
        raise ValidationError(f"family must be one of {FAMILIES}, got {family!r}")
    if family == "twb" and not 0 <= param < 1:
        raise ValidationError(f"twb parameter must be in [0, 1), got {param!r}")
    if family == "tmc" and not (np.isfinite(param) and param >= 0):
        raise ValidationError(f"tmc parameter must be >= 0, got {param!r}")
    if chi < 0 or alpha < 0 or not (np.isfinite(chi) and np.isfinite(alpha)):
        raise ValidationError(f"chi and alpha must be finite and >= 0, got {chi!r}, {alpha!r}")


def analytic_rate(family, side, param, chi, alpha):
    """Closed-form dD_{C+}/dt endpoints for the two state families."""
    _check_point(family, param, chi, alpha)
    if side not in ("exact", "model"):
        raise ValidationError(f"side must be 'exact' or 'model', got {side!r}")
    if family == "twb":
        x = param
        return 8.0 * chi * alpha * x * (1.0 + x * x) / (1.0 - x * x) ** 2
    lam = param
    return (8.0 if side == "exact" else 4.0) * chi * lam * alpha


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
        return dD_dx * dx_dt
    return 4.0 * chi * param * alpha


def default_truncation(family, param, alpha):
    """Cutoffs holding constructor tails below 1e-12 with a margin of two pair levels."""
    d0 = pump_dimension(alpha)
    if family == "twb":
        d = min_dimension_twb(param)
    else:
        d = min_dimension_tmc(param)
    return TruncationConfig(d0, d + 2, d + 2)


def _make_state(family, param, alpha):
    trunc = default_truncation(family, param, alpha)
    pump = coherent(alpha, trunc.d0)
    pair = twb(param, trunc.d1) if family == "twb" else tmc(param, trunc.d1)
    return product_state(pump, pair)


def exact_rate(family, param, chi, alpha):
    """dD_{C+}/dt at t=0 on coherent(alpha) x family(param), from the equation of motion."""
    _check_point(family, param, chi, alpha)
    return disp_plus_rate(_make_state(family, param, alpha), chi)


def exact_rate_fd(family, param, chi, alpha):
    """Finite-difference dD_{C+}/dt at t=0 on coherent(alpha) x family(param)."""
    _check_point(family, param, chi, alpha)
    s0 = _make_state(family, param, alpha)
    return rate_of(s0, HamiltonianParams(chi), lambda s: measure(s).disp_plus)


def diagnostic_simple_rate(s, chi):
    """Literal 2 chi <Q> <C+>; matches TMC but not TWB, reported only."""
    o = measure(s)
    return 2.0 * chi * o.pump_quad * o.c_plus


def build_report(family, param, chi, alpha):
    """One comparison point: all four rates plus discrepancy metrics.

    rate_exact is ``exact_rate``'s value; the state is built and gathered
    onto the sector layout once for it and for the diagnostic.
    """
    _check_point(family, param, chi, alpha)
    s0 = gather(_make_state(family, param, alpha).grid())
    rate = disp_plus_rate(s0, chi)
    p_exact = analytic_rate(family, "exact", param, chi, alpha)
    p_model = analytic_rate(family, "model", param, chi, alpha)
    m_traj = model_rate_from_trajectory(family, param, chi, alpha)
    diag = diagnostic_simple_rate(s0, chi)
    defined = p_exact != 0.0 and m_traj != 0.0
    rel = abs(rate - p_exact) / abs(p_exact) if p_exact != 0.0 else math.nan
    ratio = rate / m_traj if m_traj != 0.0 else math.nan
    return DispersionReport(
        state_family=family,
        state_param=param,
        chi=chi,
        alpha=alpha,
        rate_exact=rate,
        rate_analytic_exact=p_exact,
        rate_analytic_model=p_model,
        rate_model_traj=m_traj,
        rate_diag_simple=diag,
        rel_err_exact=rel,
        model_exact_ratio=ratio,
        ratios_defined=defined,
    )
