"""The sector layout of the trilinear interaction generator, and its dense maps.

The generator in the resonant rotating frame is

    G = chi * (a1+ a2+ a0  -  a1 a2 a0+)

with mode 0 the pump.  Both terms carry real square-root factors, so G is a
real antisymmetric matrix in the Fock basis and the truncated evolution is
exactly norm-preserving.

G conserves delta = n1 - n2 and n0 + n1, so the box (d0, d1, d2) splits into
independent sectors, one per delta in [-(d2 - 1), d1 - 1].  Inside a sector
an amplitude is fixed by n0 and the pair index m = min(n1, n2), with
n1 = m + max(delta, 0) and n2 = m + max(-delta, 0); G only hops
(n0 + 1, m) <-> (n0, m + 1).  A state keeps its sectors in one stacked array

    psi[n0, m, j]    shape (d0, min(d1, d2), J)

holding the J occupied sectors (a sector is occupied when any of its
amplitudes is nonzero; G never couples sectors, so the others stay zero).
Sectors shorter than min(d1, d2) are padded with zeros, so a state with
every sector occupied costs less than twice the dense (d0, d1, d2) grid.
``SectorLayout`` holds the index maps and the ladder weights the observables
and the propagator use, built once per (shape, sector set) and cached;
weights are zero on padding and on the box edges.  G's hop weights are
``pump_w * pair_w``, formed only where the propagator fills its blocks.  The
mask ``edge`` marks the cells from which one application of G leaves the box.
No operator is applied here.  ``gather`` and ``scatter`` (dense grid <-> layout)
serve only ``PureState(config, amplitudes)``, the one way in for a dense
vector, and ``amplitudes`` and ``grid()``, the way out; no CLI command uses either.
"""

from functools import lru_cache

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
        # each cell's occupations, 0 on padding
        self.n1, self.n2 = np.where(self.valid, n1, 0), np.where(self.valid, n2, 0)
        # flat (n1, n2) index of each cell; padding points at cell 0 and is zeroed
        self.index = self.n1 * d2 + self.n2
        self.n1n2 = (self.n1 * self.n2).astype(float)
        # A A+ is diagonal with weight (n1+1)(n2+1), zero on the raise boundary;
        # A = a1 a2 takes m + 1 to m with the square root of it
        self.raise_w = np.where(m + 1 < length, (n1 + 1.0) * (n2 + 1.0), 0.0)
        self.pair_w = np.sqrt(self.raise_w)
        self.pair2_w = self.pair_w[:-2] * self.pair_w[1:-1]
        n0 = np.arange(d0, dtype=float)
        self.pump_w = np.sqrt(n0[1:])[:, None, None]
        # the weight vectors observables.records applies to |psi|^2: N, n1 - n2, A+ A
        # and A A+ on each pair cell, then n0 and 1 (the norm^2) on each pump level
        pair = np.broadcast_arrays(self.n1 + self.n2, delta, self.n1n2, self.raise_w)
        self.pair_moments = np.stack(pair).reshape(4, -1).astype(float)
        self.pump_moments = np.stack((n0, np.ones(d0)))
        # the cells G maps out of the box: a1 a2 a0+ from the pump edge n0 = d0 - 1
        # with n1 n2 > 0, a1+ a2+ a0 from each sector's last pair level with n0 > 0
        n0 = n0[:, None, None]
        self.edge = (n0 == d0 - 1) & (self.n1n2 > 0) | (n0 > 0) & (m == length - 1)
        self.edge_w = self.edge.reshape(-1).astype(float)  # its weight vector
        for a in vars(self).values():
            if isinstance(a, np.ndarray):
                a.flags.writeable = False


@lru_cache(maxsize=64)
def sector_layout(shape, deltas):
    """The cached ``SectorLayout`` of box ``shape`` holding sectors ``deltas``."""
    return SectorLayout(shape, deltas)


def occupied_sectors(grid):
    """Sorted n1 - n2 values of the sectors where the (d0, d1, d2) grid is nonzero."""
    delta = np.subtract.outer(np.arange(grid.shape[1]), np.arange(grid.shape[2]))
    return tuple(np.unique(delta[np.any(grid != 0, axis=0)]).tolist())


def gather(grid):
    """(psi, layout): the occupied sectors of a dense (d0, d1, d2) grid, psi a new array."""
    layout = sector_layout(grid.shape, occupied_sectors(grid))
    # np.take keeps the result C-ordered; fancy indexing would put n0 fastest
    psi = np.take(grid.reshape(grid.shape[0], -1), layout.index, axis=1)
    psi[:, ~layout.valid] = 0.0
    return psi, layout


def scatter(psi, layout):
    """The dense (d0, d1, d2) grid of psi on ``layout``; unoccupied sectors are zero."""
    d0, d1, d2 = layout.shape
    grid = np.zeros((d0, d1 * d2), dtype=np.complex128)
    grid[:, layout.index[layout.valid]] = psi[:, layout.valid]
    return grid.reshape(layout.shape)

