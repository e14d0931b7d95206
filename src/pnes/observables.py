"""Expectation values and dispersions for the pair operators.

All moments are assembled matrix-free from ladder actions on the sector
layout of ``kernels`` (a PureState is gathered first), so their cost
follows the occupied n1 - n2 sectors, not the dense grid:

    A   = a1 a2            pair amplitude (expectation is the model's Lambda)
    N   = n1 + n2          total pair photon number
    C+  = A + A+           pair quadratures; D_C = <C^2> - <C>^2
    C-  = (A - A+) / i
    Q   = a0 + a0+         pump quadrature
    K   = n0 + (n1+n2)/2   conserved total excitation

A A+ and A+ A are diagonal in the Fock basis ((n1+1)(n2+1) and n1 n2), so
the dispersions never need a materialized operator and stay exact at the
cutoff edge.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import ValidationError


@dataclass
class ObservableSet:
    """One snapshot of every observable the analysis uses."""

    pair_amp: complex
    pair_amp_conj: complex
    total_n: float
    diff_n: float
    pump_amp: complex
    pump_quad: float
    c_plus: float
    disp_plus: float
    disp_minus: float
    conserved_k: float


class _Moments(NamedTuple):
    pair: complex  # <A>
    pair2: complex  # <A^2>
    ada: float  # <A+ A>
    aad: float  # <A A+>
    pump: complex  # <a0>
    total_n: float
    diff_n: float
    conserved_k: float


def _moments(s):
    """Every moment the observables use, computed together on the sector layout.

    s is a PureState (gathered here) or a ``kernels.Sectors``.  A A+ and
    A+ A are diagonal with weights (n1+1)(n2+1) and n1 n2; the A A+ weight
    is zeroed on the raise boundary so the result agrees with the truncated
    operators (and with the dense oracle) everywhere.
    """
    psi, lay = s if isinstance(s, kernels.Sectors) else kernels.gather(s.grid())
    p = psi.real**2 + psi.imag**2
    p_pair = p.sum(axis=0)
    total_n = float(np.sum(lay.nsum * p_pair))
    return _Moments(
        pair=complex(np.vdot(psi[:, :-1], lay.pair_w[:-1] * psi[:, 1:])),
        pair2=complex(np.vdot(psi[:, :-2], lay.pair2_w * psi[:, 2:])),
        ada=float(np.sum(lay.n1n2 * p_pair)),
        aad=float(np.sum(lay.raise_w * p_pair)),
        pump=complex(np.vdot(psi[:-1], lay.pump_w * psi[1:])),
        total_n=total_n,
        diff_n=float(np.sum(lay.delta * p_pair)),
        conserved_k=float(np.dot(lay.n0, p.sum(axis=(1, 2)))) + 0.5 * total_n,
    )


def expect_pair_amplitude(s):
    """<A> = <a1 a2>, the state's pair amplitude (the model's Lambda)."""
    return _moments(s).pair


def expect_pump_amplitude(s):
    """<a0>."""
    return _moments(s).pump


def expect_total_number(s):
    return _moments(s).total_n


def expect_number_difference(s):
    return _moments(s).diff_n


def pump_quadrature(s):
    """<Q> = <a0 + a0+> = 2 Re<a0>."""
    return 2.0 * expect_pump_amplitude(s).real


def conserved_excitation(s):
    """<K> = <n0 + (n1+n2)/2>, conserved by the trilinear interaction."""
    return _moments(s).conserved_k


def _dispersion(mo, sign):
    if sign == "plus":
        return 2.0 * mo.pair2.real + mo.ada + mo.aad - (2.0 * mo.pair.real) ** 2
    return mo.ada + mo.aad - 2.0 * mo.pair2.real - (2.0 * mo.pair.imag) ** 2


def pair_quadrature_dispersion(s, sign):
    """Dispersion of C+ (sign='plus') or C- (sign='minus')."""
    if sign not in ("plus", "minus"):
        raise ValidationError(f"sign must be 'plus' or 'minus', got {sign!r}")
    return _dispersion(_moments(s), sign)


def c_plus_expectation(s):
    """<C+> = 2 Re<A>."""
    return 2.0 * expect_pair_amplitude(s).real


def photon_number_distribution(s, mode):
    """Marginal photon-number distribution of one mode; sums to 1 - leakage."""
    if mode not in (0, 1, 2):
        raise ValidationError(f"mode must be 0, 1 or 2, got {mode!r}")
    axes = tuple(ax for ax in (0, 1, 2) if ax != mode)
    return np.sum(s.probabilities(), axis=axes)


def edge_occupancy(s):
    """Probability mass on the cutoff boundary of any nontrivial mode.

    Modes of dimension 1 (e.g. the trivial pump slot of a pair-sector
    state) have no tail to occupy and are skipped.
    """
    p = s.probabilities()
    d0, d1, d2 = s.config.shape
    mask = np.zeros(s.config.shape, dtype=bool)
    if d0 > 1:
        mask[-1, :, :] = True
    if d1 > 1:
        mask[:, -1, :] = True
    if d2 > 1:
        mask[:, :, -1] = True
    return float(np.sum(p[mask]))


def measure(s):
    """All observables of one state (a PureState or a kernels.Sectors)."""
    mo = _moments(s)
    return ObservableSet(
        pair_amp=mo.pair,
        pair_amp_conj=mo.pair.conjugate(),
        total_n=mo.total_n,
        diff_n=mo.diff_n,
        pump_amp=mo.pump,
        pump_quad=2.0 * mo.pump.real,
        c_plus=2.0 * mo.pair.real,
        disp_plus=_dispersion(mo, "plus"),
        disp_minus=_dispersion(mo, "minus"),
        conserved_k=mo.conserved_k,
    )
