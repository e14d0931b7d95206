"""Expectation values and dispersions for the pair operators.

All moments are assembled matrix-free from ladder actions on the sectors a
``PureState`` holds (``s.psi`` on ``s.layout``, see ``kernels``), so their
cost follows the occupied n1 - n2 sectors, not the dense grid:

    A   = a1 a2            pair amplitude (expectation is the model's Lambda)
    N   = n1 + n2          total pair photon number
    C+  = A + A+           pair quadratures; D_C = <C^2> - <C>^2
    C-  = (A - A+) / i
    Q   = a0 + a0+         pump quadrature
    K   = n0 + (n1+n2)/2   conserved total excitation

``measure`` is the one reader of a state: from |psi|^2 it computes every
moment together with the norm and the leakage, the probability on the edge
cells (``SectorLayout.edge``) from which one application of G leaves the
box, and returns them as an ``ObservableSet``, a NamedTuple; read one as
``measure(s).<field>``.  ``expect_pair_amplitude`` and
``expect_total_number`` read the two fields the model compares against.
A A+ and A+ A are diagonal in the Fock basis ((n1+1)(n2+1) and n1 n2), so
the dispersions never need a materialized operator and stay exact at the
cutoff edge.  ``disp_plus_rate`` gives dD_{C+}/dt at t = 0 in closed form,
as a moment of the state: the commutator [C+, G] is the pump quadrature
times the diagonal [A, A+], so G itself is never applied.
"""

from typing import NamedTuple

import numpy as np

from .errors import ValidationError


class ObservableSet(NamedTuple):
    """One snapshot of every observable the analysis uses, then the norm and the leakage."""

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
    norm: float
    leakage: float


def measure(s):
    """All observables of one state, its norm and its leakage, from one |psi|^2.

    A A+ and A+ A are diagonal with weights (n1+1)(n2+1) and n1 n2; the
    A A+ weight is zeroed on the raise boundary so the dispersions agree
    with the truncated operators (and with the dense oracle) everywhere.
    """
    psi, lay = s.psi, s.layout
    p = psi.real**2 + psi.imag**2
    p_pump = p.sum(axis=(1, 2))
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
        conserved_k=float(np.dot(lay.n0, p_pump)) + 0.5 * total_n,
        norm=float(np.sqrt(p_pump.sum())),
        leakage=float(p[lay.edge].sum()),
    )


def expect_pair_amplitude(s):
    """<A> = <a1 a2>, the state's pair amplitude (the model's Lambda)."""
    return measure(s).pair_amp


def expect_total_number(s):
    return measure(s).total_n


def disp_plus_rate(s, chi):
    """dD_{C+}/dt of s under G = chi (a1+ a2+ a0 - a1 a2 a0+), a moment of the state.

    a0 commutes with A and A+, so [C+, G] = chi K Q with K = [A, A+] and
    Q = a0 + a0+.  This holds exactly in the truncated box, where K is the
    diagonal A A+ - A+ A with the weights ``raise_w - n1n2`` that ``measure``
    uses.  As G is antisymmetric, d<X>/dt = <[X, G]>, so
    dD/dt = 2 chi (Re<psi|C+ K Q psi> - <C+> Re<psi|K Q psi>).
    One array phi = K Q psi; <psi|C+ phi> is read as two shifted products.
    The factor 2 chi multiplies in Python floats, so an overflow is inf, not a warning.
    """
    psi, lay = s.psi, s.layout
    w = lay.pair_w[:-1]
    phi = np.zeros_like(psi)
    np.multiply(lay.pump_w, psi[1:], out=phi[:-1])  # a0 psi
    phi[1:] += lay.pump_w * psi[:-1]  # a0+ psi
    phi *= lay.raise_w - lay.n1n2
    c_plus = 2.0 * np.vdot(psi[:, :-1], w * psi[:, 1:]).real
    c_phi = np.vdot(psi[:, :-1], w * phi[:, 1:]) + np.vdot(psi[:, 1:], w * phi[:, :-1])
    return 2.0 * float(chi) * float(c_phi.real - c_plus * np.vdot(psi, phi).real)


def photon_number_distribution(s, mode):
    """Marginal photon-number distribution of one mode of a PureState; sums to 1.
    Read from the sectors: a pair mode bins each cell's probability by its n1 or n2."""
    if mode not in (0, 1, 2):
        raise ValidationError(f"mode must be 0, 1 or 2, got {mode!r}")
    lay = s.layout
    p = s.psi.real**2 + s.psi.imag**2
    if mode == 0:
        return p.sum(axis=(1, 2))
    n = lay.n1 if mode == 1 else lay.n2
    return np.bincount(n.ravel(), weights=p.sum(axis=0).ravel(), minlength=lay.shape[mode])

