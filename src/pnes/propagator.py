"""Exact time evolution under the trilinear interaction.

The state evolves in the resonant rotating frame, d psi/dt = G psi with
G = chi (a1+ a2+ a0 - a1 a2 a0+); the free-Hamiltonian terms are removed
analytically (at resonance they only rotate phases jointly and commute
with the interaction).

G conserves n1 - n2, so ``evolve`` works on the occupied sectors a
``PureState`` holds, psi[n0, m, j] (see ``kernels``).  There G only hops
(n0 + 1, m) <-> (n0, m + 1): each chain K = n0 + m evolves alone under a real
antisymmetric tridiagonal matrix with off-diagonal chi * hop[K - m - 1, m, j],
where hop = pump_w * pair_w, formed in ``_chain_spectrum`` and nowhere else.
The chains are folded into P = max(d0, M) blocks of L = min(d0, M) cells: cell
(n0, m) goes to block K mod P, at its index along the shorter of the n0 and m
axes.  A block holds chain b, or chains b and b + P with no hop where they
meet, so the fold is a permutation of the cells, with no padding.  A hop joins
an even index to an odd one, so with its even cells first a block's G is
[[0, B], [-B^T, 0]], and B = U S W^T (``np.linalg.svd``) gives the exact
propagator as a real rotation: the coefficients u0 = U^T x_even and
w0 = W^T x_odd of the initial state turn by the angles s t (G's eigenvalues
are +-i s), and a real state stays real.  So each record is exp(G t) psi at
its own t, ``dt`` and ``steps`` only set the output grid, and only the
recorded times are computed.
The norm is reported, never renormalized; ``measure`` reads it and the leakage
of each recorded state, and ``ExactTrajectory`` states their extremes.
"""

import math
import sys
from typing import NamedTuple

import numpy as np

from .errors import NoisyDerivativeError, ValidationError
from .fock import MAX_ROWS, MAX_TOTAL_DIM, HamiltonianParams, PureState
from .observables import measure


class EvolutionSpec(NamedTuple("EvolutionSpec", [("params", HamiltonianParams), ("dt", float),
                                                  ("steps", int), ("record_every", int)])):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, params, dt, steps, record_every=1):
        for name, n in (("steps", steps), ("record_every", record_every)):
            if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
                raise ValidationError(f"{name} must be an integer, got {n!r}")
        if isinstance(dt, (bool, np.bool_)) or dt == 0 or not np.isfinite(dt):
            raise ValidationError(f"dt must be finite and nonzero, got {dt!r}")
        if steps < 0:
            raise ValidationError(f"steps must be >= 0, got {steps}")
        if record_every < 1:
            raise ValidationError(f"record_every must be >= 1, got {record_every}")
        rows = -(-steps // record_every) + 1  # t = 0, every record_every-th step, the last
        if rows > MAX_ROWS:
            raise ValidationError(f"steps={steps} at record_every={record_every} would record "
                                  f"{rows} rows, more than the {MAX_ROWS} a run may write")
        # a conservative bound on the phases s t the spectrum turns by, in Python floats
        # (inf or nan on overflow, never an error): T = steps |dt| bounds every |t| at
        # which the spectrum is read, and every singular value s of a block's B is below
        # 2 chi max hop <= chi 2 sqrt(MAX_TOTAL_DIM) = chi 2^14.  T and chi 2^14 must be
        # finite, and chi 2^14 T <= 2^52: past 2^52, float64 resolves s t to +-0.5 rad at best
        chi = float(params.chi)
        T = float(steps) * abs(float(dt)) if steps <= sys.float_info.max else math.inf
        rate = chi * 2.0 * MAX_TOTAL_DIM**0.5
        if not (math.isfinite(T) and math.isfinite(rate) and rate * T <= 2.0**52):
            raise ValidationError(f"dt={dt!r}, steps={steps} and chi={chi!r} exceed the "
                                  "conservative bound on the recorded times and the "
                                  "propagator's phases")
        return super().__new__(cls, params, dt, steps, record_every)

    def times(self):
        """The recorded times as Python floats: 0, then k dt at k = r, 2 r, ... and steps."""
        n, r = self.steps, self.record_every
        return [0.0, *(min(k, n) * self.dt for k in range(r, n + r, r))]


class ExactTrajectory(NamedTuple):
    """What ``evolve`` records, ending in ``final_state``: ``observables[k]`` is
    ``measure`` of exp(G times[k]) s0, its norm and its leakage (the
    probability on the edge cells from which one application of G leaves the
    box) included.  ``leakage`` is the largest leakage and ``norm_drift`` the
    largest |norm^2 - 1| over the records.  The leakage lies in [0, 1] and does
    not depend on ``dt``, but it is a diagnostic, not a bound on the truncation
    error: it misses probability that crosses the edge between two records."""

    times: np.ndarray
    observables: list
    final_state: PureState
    norm_drift: float
    leakage: float


def _chain_spectrum(psi, layout, chi):
    """A function ``at(t)``: the sector array exp(G t) psi on ``layout``, at any real t.

    It keeps U, W, s and psi's coefficients u0 = U^T x_even and w0 = W^T x_odd,
    and each call turns u0 and w0 by the angles s t; no call changes them.

    The fold (see the module docstring) maps cell (n0, m) to index c of block
    (n0 + m) mod P, c = m if d0 >= M, else c = n0, at pos = c // 2 for even c
    and E + c // 2 for odd c, E = ceil(L/2).  G takes p = (a + 1, m) to
    q = (a, m + 1) with weight chi * hop[a, m], and q to p with its negative;
    B, shape (P, J, E, L // 2), holds G's entries from odd cells to even ones.
    U and W hold about half of P * J * L^2 float64, but B, U and Wt are live with
    the SVD's temporaries, then with U's transposed copy, so the peak is about
    P * J * L^2 float64; ValidationError, before any decomposition, if P * J * L^2
    would exceed 2 * MAX_TOTAL_DIM float64, as many bytes as the largest dense state.
    """
    d0, M, J = psi.shape
    P, L = max(d0, M), min(d0, M)
    if P * J * L * L > 2 * MAX_TOTAL_DIM:
        raise ValidationError(f"the chain eigenvectors of {J} n1 - n2 sectors on a {d0} x "
                              f"{M} box exceed {2 * MAX_TOTAL_DIM} float64")
    E, F = (L + 1) // 2, L // 2
    n0, m = np.ogrid[:d0, :M]
    block = (n0 + m) % P
    c = np.broadcast_to(m if d0 >= M else n0, block.shape)
    pos = c // 2 + (c % 2) * E
    p, q = pos[1:, :-1], pos[:-1, 1:]
    hop = layout.pump_w * layout.pair_w[None, :-1, :]  # G's weight between p and q
    B = np.zeros((P, J, E, F))
    # a hop's even cell is the one with the lower pos; G's entry from p to q is +chi hop
    sign = np.where(q < p, chi, -chi)[..., None]
    B[block[1:, :-1], :, np.minimum(p, q), np.maximum(p, q) - E] = sign * hop
    U, s, Wt = np.linalg.svd(B)
    # U kept transposed, as W is: its product with the transposed rows is then ~3x faster
    U, W = np.ascontiguousarray(U.swapaxes(-1, -2)).swapaxes(-1, -2), Wt.swapaxes(-1, -2)

    # U and W are real: they act on psi's real and imaginary parts as two rows, along
    # which cos(s t) and sin(s t) broadcast (a length-2 last axis is slow to broadcast)
    x = np.empty((P, J, 2, L))
    x[block, :, 0, pos], x[block, :, 1, pos] = psi.real, psi.imag  # the fold sets every cell
    u0, w0 = x[..., :E] @ U, x[..., E:] @ W  # for odd L, u0's last pairs with no s

    def at(t):
        tan = np.tan(0.5 * t * s)  # cos and sin of s t from tan(s t / 2): one call, not two
        sec2 = 1.0 + tan * tan
        cos, sin = ((2.0 - sec2) / sec2)[..., None, :], (2.0 * tan / sec2)[..., None, :]
        u = np.concatenate((cos * u0[..., :F] + sin * w0, u0[..., F:]), axis=-1)
        w = cos * w0 - sin * u0[..., :F]
        out = np.concatenate((U @ u.swapaxes(-1, -2), W @ w.swapaxes(-1, -2)), axis=-2)
        return out.view(np.complex128)[..., 0][block, :, pos]

    return at


def evolve(s0, spec):
    """exp(G t) s0 at each of ``spec.times()``, read from one spectrum of the blocks.

    So a record does not depend on ``dt`` or ``record_every``, and only the
    recorded times are computed.  The final state never shares its sector array
    with s0.  Nothing scatters to the dense grid.  ValidationError when the
    blocks' singular vectors would not fit (see ``_chain_spectrum``).
    """
    psi, layout = s0.psi, s0.layout
    at = _chain_spectrum(psi, layout, spec.params.chi)
    times, obs = spec.times(), [measure(s0)]
    for t in times[1:]:
        psi = at(t)
        obs.append(measure(PureState.from_sectors(psi, layout)))

    return ExactTrajectory(
        times=np.asarray(times),
        observables=obs,
        final_state=PureState.from_sectors(psi.copy() if spec.steps == 0 else psi, layout),
        norm_drift=max(abs(o.norm**2 - 1.0) for o in obs),
        leakage=max(o.leakage for o in obs),
    )


_FD_TOL = 1e-4


def rate_of(s0, params, f):
    """d<f>/dt at t=0 by Richardson-extrapolated central differences.

    f is a callable on each evolved ``PureState``, e.g.
    ``lambda s: measure(s).disp_plus``.
    Central differences with steps h and h/2 are combined to fourth order,
    with h = 1e-3 / (chi * max(1, |<a0>|, <N>)).  The four states, at +-h and
    +-h/2, are exact and read from one spectrum of the blocks (``_chain_spectrum``).
    Raises NoisyDerivativeError (carrying both estimates) when their error
    estimate |d(h/2) - d(h)| / 3 exceeds 1e-4 * max(1, |rate|).
    """
    if params.chi == 0.0:
        return 0.0
    o = measure(s0)
    h = 1e-3 / (params.chi * max(1.0, abs(o.pump_amp), o.total_n))
    at = _chain_spectrum(s0.psi, s0.layout, params.chi)
    f_h2, f_h, f_mh2, f_mh = (f(PureState.from_sectors(at(t), s0.layout))
                              for t in (h / 2.0, h, -h / 2.0, -h))
    d_h = (f_h - f_mh) / (2.0 * h)
    d_h2 = (f_h2 - f_mh2) / h
    rich = (4.0 * d_h2 - d_h) / 3.0
    err = abs(d_h2 - d_h) / 3.0
    if err > _FD_TOL * max(1.0, abs(rich)):
        raise NoisyDerivativeError(
            f"finite-difference estimates disagree: {d_h!r} (h) vs {d_h2!r} (h/2)",
            d_h,
            d_h2,
        )
    return rich
