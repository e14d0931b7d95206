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

``records`` is the one reader of states: from real rows holding any number
of records (``rows``; one row for a real state), it computes every moment
together with the norm and the leakage, the probability on the edge cells
(``SectorLayout.edge``) from which one application of G leaves the box, for
all records at once, and returns an ``ObservableSet``, a NamedTuple, per
record.  ``measure(s)`` is its call on one state; read one as
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


def rows(psi):
    """psi's real rows, shaped psi.shape + (rows, 1): its real part, then its imaginary
    part unless that is zero everywhere, so a real state is one row."""
    if not psi.imag.any():
        return psi.real[..., None, None]
    return np.stack((psi.real, psi.imag), axis=-1)[..., None]


def _overlap(a, b, w, axes):
    """<a| w b> per record, for real rows a and b shaped (..., rows, records) and weights
    w that vary only along the axes not in ``axes``: the products of the rows are
    summed over ``axes`` and the rows, then contracted with w in one product."""
    w, shape = w.reshape(-1), (w.size, a.shape[-1])
    z = (w @ (a * b).sum(axis=(*axes, -2)).reshape(shape)).astype(np.complex128)
    if a.shape[-2] == 2:  # the imaginary part, zero for one row
        im = (a[..., 0, :] * b[..., 1, :] - a[..., 1, :] * b[..., 0, :]).sum(axis=axes)
        z.imag = w @ im.reshape(shape)
    return z


def records(x, lay, count):
    """The ``ObservableSet`` of each of the first ``count`` records of x on ``lay``.

    x holds real rows shaped (d0, M, J, rows, records) (see ``rows``).  Every moment
    is computed for all records of x at once, the record axis last: |psi|^2 and the
    products of rows shifted by one or two pair levels or one pump level are summed
    over the rows and over the axes the moment's weights do not depend on, and
    then contracted with the weight vectors of ``lay`` by matrix-vector products.
    A A+ and A+ A are diagonal with weights (n1+1)(n2+1) and n1 n2; the A A+ weight
    is zeroed on the raise boundary so the dispersions agree with the truncated
    operators (and with the dense oracle) everywhere.
    """
    d0, M, J, _, n = x.shape
    p = np.square(x).sum(axis=3).reshape(d0, M * J, n)  # |psi|^2
    total_n, diff_n, ada, aad = lay.pair_moments @ p.sum(axis=0)  # <A+ A>, <A A+>
    n0, norm2 = lay.pump_moments @ p.sum(axis=1)
    pair = _overlap(x[:, :-1], x[:, 1:], lay.pair_w[:-1], (0,))  # <A>
    pair2 = _overlap(x[:, :-2], x[:, 2:], lay.pair2_w, (0,)).real  # Re <A^2>
    pump = _overlap(x[:-1], x[1:], lay.pump_w, (1, 2))  # <a0>
    c_plus = 2.0 * pair.real
    fields = (
        pair,
        pair.conjugate(),
        total_n,
        diff_n,
        pump,
        2.0 * pump.real,
        c_plus,
        2.0 * pair2 + ada + aad - c_plus**2,
        ada + aad - 2.0 * pair2 - (2.0 * pair.imag) ** 2,
        n0 + 0.5 * total_n,
        np.sqrt(norm2),
        lay.edge_w @ p.reshape(-1, n),
    )
    return [ObservableSet(*o) for o in zip(*(f[:count].tolist() for f in fields))]


def measure(s):
    """All observables of one state, its norm and its leakage: ``records`` of its one record."""
    return records(rows(s.psi), s.layout, 1)[0]


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

