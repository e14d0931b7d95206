"""Kernels of the trilinear interaction generator, on the sector layout.

The generator in the resonant rotating frame is

    G = chi * (a1+ a2+ a0  -  a1 a2 a0+)

with mode 0 the pump.  Both terms carry real square-root factors, so G is a
real antisymmetric matrix in the Fock basis and the truncated evolution is
exactly norm-preserving.

G conserves delta = n1 - n2 and n0 + n1, so the box (d0, d1, d2) splits into
independent sectors, one per delta in [-(d2 - 1), d1 - 1].  Inside a sector
an amplitude is fixed by n0 and the pair index m = min(n1, n2), with
n1 = m + max(delta, 0) and n2 = m + max(-delta, 0); G only hops
(n0 + 1, m) <-> (n0, m + 1).  The kernels work on a stacked array

    psi[n0, m, j]    shape (d0, min(d1, d2), J)

holding the J occupied sectors (a sector is occupied when any of its
amplitudes is nonzero; G never couples sectors, so the others stay zero).
Sectors shorter than min(d1, d2) are padded with zeros, so a state with
every sector occupied costs less than twice the dense (d0, d1, d2) grid.
``SectorLayout`` holds the index maps and every weight the kernels and the
observables use, built once per (shape, sector set) and cached; weights are
zero on padding and on the box edges.  ``gather`` and ``scatter`` convert
between a dense grid and this layout.  The propagator diagonalizes G on
each chain K = n0 + m from the hop weights; ``apply_generator`` serves the
equation-of-motion rate.
"""

from functools import lru_cache
from typing import NamedTuple

import numpy as np


class SectorLayout:
    """Index maps and weights of the occupied sectors ``deltas`` of a box ``shape``.

    Layouts are cached and shared, so every array is read-only.
    """

    def __init__(self, shape, deltas):
        d0, d1, d2 = self.shape = shape
        self.deltas = deltas
        delta = np.array(deltas, dtype=np.int64)
        m = np.arange(min(d1, d2))[:, None]
        n1 = m + np.maximum(delta, 0)
        n2 = m + np.maximum(-delta, 0)
        length = np.minimum(d1 - n1[0], d2 - n2[0])
        self.valid = m < length
        # flat (n1, n2) index of each cell; padding points at cell 0 and is zeroed
        self.index = np.where(self.valid, n1 * d2 + n2, 0)
        # the last valid m of each sector sits on the n1 or n2 edge
        self.top = length - 1
        self.cols = np.arange(len(deltas))
        self.n0 = np.arange(d0, dtype=float)
        self.delta = delta.astype(float)
        self.n1n2 = np.where(self.valid, n1 * n2, 0).astype(float)
        self.nsum = np.where(self.valid, n1 + n2, 0).astype(float)
        # A A+ is diagonal with weight (n1+1)(n2+1), zero on the raise boundary;
        # A = a1 a2 takes m + 1 to m with the square root of it
        raise_all = (n1 + 1.0) * (n2 + 1.0)
        self.raise_w = np.where(m + 1 < length, raise_all, 0.0)
        self.pair_w = np.sqrt(self.raise_w)
        self.pair2_w = self.pair_w[:-2] * self.pair_w[1:-1]
        self.pump_w = np.sqrt(self.n0[1:])[:, None, None]
        # G hops between (n0 + 1, m) and (n0, m + 1)
        self.hop = self.pump_w * self.pair_w[None, :-1, :]
        # discard flux: a1 a2 a0+ out of the pump edge, a1+ a2+ a0 out of the pair edge
        self.pump_edge_w = d0 * self.n1n2
        self.pair_edge_w = self.n0[:, None] * raise_all[self.top, self.cols]
        for a in vars(self).values():
            if isinstance(a, np.ndarray):
                a.flags.writeable = False


@lru_cache(maxsize=64)
def sector_layout(shape, deltas):
    """The cached ``SectorLayout`` of box ``shape`` holding sectors ``deltas``."""
    return SectorLayout(shape, deltas)


class Sectors(NamedTuple):
    """A state on the sector layout: psi[n0, m, j] and its layout."""

    psi: np.ndarray
    layout: SectorLayout


def occupied_sectors(grid):
    """Sorted n1 - n2 values of the sectors where the (d0, d1, d2) grid is nonzero."""
    _, d1, d2 = grid.shape
    occupied = np.any(grid != 0, axis=0)
    delta = np.subtract.outer(np.arange(d1), np.arange(d2))
    # a bincount over the d1 + d2 - 1 values, not np.unique, which imports numpy.ma
    counts = np.bincount(delta[occupied] + d2 - 1, minlength=d1 + d2 - 1)
    return tuple((np.flatnonzero(counts) - (d2 - 1)).tolist())


def gather(grid):
    """The occupied sectors of a dense (d0, d1, d2) grid, as a new ``Sectors``."""
    layout = sector_layout(grid.shape, occupied_sectors(grid))
    # np.take keeps the result C-ordered; fancy indexing would put n0 fastest
    psi = np.take(grid.reshape(grid.shape[0], -1), layout.index, axis=1)
    psi[:, ~layout.valid] = 0.0
    return Sectors(psi, layout)


def scatter(psi, layout):
    """The dense (d0, d1, d2) grid of psi on ``layout``; unoccupied sectors are zero."""
    d0, d1, d2 = layout.shape
    grid = np.zeros((d0, d1 * d2), dtype=np.complex128)
    grid[:, layout.index[layout.valid]] = psi[:, layout.valid]
    return grid.reshape(layout.shape)


def apply_generator(psi, chi, out, layout):
    """out <- G psi on ``layout``. psi, out: complex (d0, M, J) sector arrays."""
    hop = layout.hop
    out[-1] = 0.0
    out[:, 0] = 0.0
    # a1+ a2+ a0: target (n0, m + 1) fed from (n0 + 1, m)
    np.multiply(hop, psi[1:, :-1], out=out[:-1, 1:])
    # -a1 a2 a0+: target (n0 + 1, m) fed from (n0, m + 1)
    out[1:, :-1] -= hop * psi[:-1, 1:]
    out *= chi
    return out


def apply_pair_quadrature(psi, out, layout):
    """out <- C+ psi = (A + A+) psi on ``layout``, with A = a1 a2 and A+ its transpose.

    A takes m + 1 to m with weight ``pair_w[m]``, which is zero on padding and on
    the raise edge, so this is the C+ of the truncated box.  out must not alias psi.
    """
    w = layout.pair_w[:-1]
    np.multiply(w, psi[:, 1:], out=out[:, :-1])
    out[:, -1] = 0.0
    out[:, 1:] += w * psi[:, :-1]
    return out


def discard_flux_sq(psi, chi, layout):
    """Squared norm of the component of G psi that falls outside the cutoff box.

    The propagator adds dt^2 * discard_flux_sq(psi) per step to its leakage
    estimate: what one Euler step of length dt would send out of the box.
    Zero whenever psi is supported strictly inside the cutoff boundary.
    """
    pump_edge = np.sum(layout.pump_edge_w * np.abs(psi[-1]) ** 2)
    pair_edge = np.sum(layout.pair_edge_w * np.abs(psi[:, layout.top, layout.cols]) ** 2)
    return float(chi * chi * (pump_edge + pair_edge))
