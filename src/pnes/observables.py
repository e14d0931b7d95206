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

``measure`` is the one moment pass: it computes every moment of a state
together and returns them as an ``ObservableSet``; read one moment as
``measure(s).<field>``.  ``expect_pair_amplitude`` and
``expect_total_number`` read the two fields the model compares against.
A A+ and A+ A are diagonal in the Fock basis ((n1+1)(n2+1) and n1 n2), so
the dispersions never need a materialized operator and stay exact at the
cutoff edge.  ``disp_plus_rate`` gives dD_{C+}/dt from the equation of
motion, with one application of the generator.
"""

from dataclasses import dataclass

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


def _sectors(s):
    """s itself if it is a ``kernels.Sectors``, else the PureState s gathered."""
    return s if isinstance(s, kernels.Sectors) else kernels.gather(s.grid())


def measure(s):
    """All observables of one state, computed together on the sector layout.

    s is a PureState (gathered here) or a ``kernels.Sectors``.  A A+ and
    A+ A are diagonal with weights (n1+1)(n2+1) and n1 n2; the A A+ weight
    is zeroed on the raise boundary so the dispersions agree with the
    truncated operators (and with the dense oracle) everywhere.
    """
    psi, lay = _sectors(s)
    p = psi.real**2 + psi.imag**2
    p_pair = p.sum(axis=0)
    total_n = float(np.sum(lay.nsum * p_pair))
    pair = complex(np.vdot(psi[:, :-1], lay.pair_w[:-1] * psi[:, 1:]))  # <A>
    pair2 = complex(np.vdot(psi[:, :-2], lay.pair2_w * psi[:, 2:]))  # <A^2>
    ada = float(np.sum(lay.n1n2 * p_pair))  # <A+ A>
    aad = float(np.sum(lay.raise_w * p_pair))  # <A A+>
    pump = complex(np.vdot(psi[:-1], lay.pump_w * psi[1:]))  # <a0>
    return ObservableSet(
        pair_amp=pair,
        pair_amp_conj=pair.conjugate(),
        total_n=total_n,
        diff_n=float(np.sum(lay.delta * p_pair)),
        pump_amp=pump,
        pump_quad=2.0 * pump.real,
        c_plus=2.0 * pair.real,
        disp_plus=2.0 * pair2.real + ada + aad - (2.0 * pair.real) ** 2,
        disp_minus=ada + aad - 2.0 * pair2.real - (2.0 * pair.imag) ** 2,
        conserved_k=float(np.dot(lay.n0, p.sum(axis=(1, 2)))) + 0.5 * total_n,
    )


def expect_pair_amplitude(s):
    """<A> = <a1 a2>, the state's pair amplitude (the model's Lambda)."""
    return measure(s).pair_amp


def expect_total_number(s):
    return measure(s).total_n


def disp_plus_rate(s, chi):
    """dD_{C+}/dt of s under G = chi (a1+ a2+ a0 - a1 a2 a0+), from psi' = G psi.

    The Heisenberg equation of motion gives
    dD/dt = 2 Re<G psi|C+^2 psi> - 4 <C+> Re<G psi|C+ psi>; C+ is real
    symmetric, so <g|C+^2 psi> = <C+ g|C+ psi> and C+^2 is never formed.
    One G application, no evolution.  s is a PureState or a kernels.Sectors.
    """
    psi, lay = _sectors(s)
    g = kernels.apply_generator(psi, chi, np.empty_like(psi), lay)
    c_psi = kernels.apply_pair_quadrature(psi, np.empty_like(psi), lay)
    c_g = kernels.apply_pair_quadrature(g, np.empty_like(psi), lay)
    c_plus = np.vdot(psi, c_psi).real
    return float(2.0 * np.vdot(c_g, c_psi).real - 4.0 * c_plus * np.vdot(g, c_psi).real)


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
