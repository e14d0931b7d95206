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
recorded times are computed.  The records come in batches of a width fixed by
the box (``_batch_width``), as real rows (one for a real state, real and
imaginary parts otherwise) with the record axis last: each block turns a batch
with one GEMM of U and one of W, and ``observables.records`` measures the batch
whole.  ``dispersion.exact_rate_fd`` reads its finite-difference states from
two short ``evolve`` runs.
The norm is reported, never renormalized; ``records`` reads it and the leakage
of each recorded state, and ``ExactTrajectory`` states their extremes.
"""

import math
import sys
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .fock import MAX_ROWS, MAX_TOTAL_DIM, HamiltonianParams, PureState
from .observables import measure, records, rows


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


BATCH_BYTES = 128 * 1024  # the records of one batch, as real rows of float64


def _batch_width(size):
    """Records per batch for real rows of ``size`` float64 per record: as many as fit in
    BATCH_BYTES, at least 1, rounded down to 1, 2, 4 or a multiple of 8.  BLAS kernels
    take columns in groups of up to 8 and finish a ragged group in other code, so only
    these widths give a record the same bits at every position of its batch, and a
    batch of any multiple of 8 gives it the bits of a batch of any other."""
    n = max(1, BATCH_BYTES // (8 * size))
    return n - n % 8 if n >= 8 else 1 << (n.bit_length() - 1)


def _chain_spectrum(psi, layout, chi):
    """``(at, width)``: ``at(ts)`` is exp(G t) psi on ``layout`` at each real t of the
    batch ``ts``, as real rows shaped (d0, M, J, rows, len(ts)) (``observables.rows``:
    one row for a real psi, else its real and imaginary parts), and ``width`` is the
    number of records per batch (``_batch_width``).

    It keeps U, W, s and psi's coefficients u0 = U^T x_even and w0 = W^T x_odd, and
    each call turns u0 and w0 by the angles s t of every t, then maps them back with
    one GEMM of U and one of W per block over all rows and records; no call changes
    them.

    The fold (see the module docstring) maps cell (n0, m) to index c of block
    (n0 + m) mod P, c = m if d0 >= M, else c = n0, at pos = c // 2 for even c
    and E + c // 2 for odd c, E = ceil(L/2).  G takes p = (a + 1, m) to
    q = (a, m + 1) with weight chi * hop[a, m], and q to p with its negative;
    B, shape (P, J, E, L // 2), holds G's entries from odd cells to even ones.
    U and W hold about half of P * J * L^2 float64, but B, U and Wt are live with
    the SVD's temporaries, so the peak is about P * J * L^2 float64; a batch then
    holds a few arrays of at most BATCH_BYTES.  ValidationError, before any
    decomposition, if P * J * L^2 would exceed 2 * MAX_TOTAL_DIM float64, as many
    bytes as the largest dense state.
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
    W = Wt.swapaxes(-1, -2)

    x0 = rows(psi)[..., 0]  # (d0, M, J, R)
    R = x0.shape[-1]
    x = np.empty((P, J, L, R))
    x[block, :, pos] = x0  # the fold sets every cell
    # for odd L, u0's last pairs with no s; the record axis goes last
    u0, w0 = (U.swapaxes(-1, -2) @ x[:, :, :E])[..., None], (Wt @ x[:, :, E:])[..., None]
    cell = (block * L + pos).reshape(-1)  # each sector cell's row in the (P * L) folded cells

    def turn(ts):
        """u0 and w0 turned by the angles s t of each t in ts, as GEMM operands shaped
        (P, J, E or F, R * len(ts)).  Steps run in place wherever that leaves their
        rounding as it is, so that a batch holds few of its arrays at once."""
        n = len(ts)
        # cos and sin of s t from tan(s t / 2): one call, not two
        tan = np.tan(0.5 * np.asarray(ts, dtype=float) * s[..., None])
        sec2 = tan * tan
        sec2 += 1.0
        cos = np.subtract(2.0, sec2)
        cos /= sec2
        sin = np.multiply(2.0, tan, out=tan)
        sin /= sec2
        cos, sin = cos[..., None, :], sin[..., None, :]
        u = np.empty((P, J, E, R, n))
        np.multiply(cos, u0[:, :, :F], out=u[:, :, :F])
        u[:, :, :F] += sin * w0
        u[:, :, F:] = u0[:, :, F:]
        w = cos * w0
        w -= sin * u0[:, :, :F]
        return u.reshape(P, J, E, R * n), w.reshape(P, J, F, R * n)

    def at(ts):
        n = len(ts)
        u, w = turn(ts)
        out = np.empty((P, L, J, R * n))  # each block's cells in rows: the unfold is a take
        np.matmul(U, u, out=out[:, :E].swapaxes(1, 2))
        np.matmul(W, w, out=out[:, E:].swapaxes(1, 2))
        del u, w  # before the take, so that the batch's peak stays low
        return np.take(out.reshape(P * L, J * R * n), cell, axis=0).reshape(d0, M, J, R, n)

    return at, _batch_width(x0.size)


def _state(x, layout):
    """The PureState of real rows x shaped (d0, M, J, rows)."""
    psi = x[..., 0].astype(np.complex128)
    if x.shape[-1] == 2:
        psi.imag = x[..., 1]
    return PureState.from_sectors(psi, layout)


def evolve(s0, spec):
    """exp(G t) s0 at each of ``spec.times()``, read from one spectrum of the blocks.

    The records after t = 0 come from ``at`` in batches of at most ``width`` times,
    and ``records`` measures each batch whole.  A short batch is padded by repeating
    its last time: to ``width`` when that is 1, 2 or 4, else to the next multiple of
    8 (see ``_batch_width``).  So a record's bits depend on neither its place in a
    batch nor ``dt`` or ``record_every``, only the recorded times are computed, and
    a short run computes at most 7 records it does not keep.  The final state is
    complex128 (with a zero imaginary part for a real s0) and never shares its
    sector array with s0.
    Nothing scatters to the dense grid.  ValidationError when the blocks'
    singular vectors would not fit (see ``_chain_spectrum``).
    """
    layout = s0.layout
    at, width = _chain_spectrum(s0.psi, layout, spec.params.chi)
    times, obs, x = spec.times(), [measure(s0)], None
    for k in range(1, len(times), width):
        batch = times[k:k + width]
        n = width if width < 8 else len(batch) + -len(batch) % 8  # the padded batch
        x = at(batch + batch[-1:] * (n - len(batch)))
        obs += records(x, layout, len(batch))

    return ExactTrajectory(
        times=np.asarray(times),
        observables=obs,
        final_state=(PureState.from_sectors(s0.psi.copy(), layout) if x is None
                     else _state(x[..., -1], layout)),
        norm_drift=max(abs(o.norm**2 - 1.0) for o in obs),
        leakage=max(o.leakage for o in obs),
    )
