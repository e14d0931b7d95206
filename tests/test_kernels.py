import numpy as np
import pytest

from pnes import kernels
from pnes.fock import PureState, TruncationConfig

from oracle import dense_generator


def random_grid(shape, seed=0):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return g / np.linalg.norm(g)


@pytest.mark.parametrize("shape", [(4, 4, 4), (3, 5, 4), (5, 2, 3), (1, 3, 3)],
                         ids=["cube", "d1>d2", "d0>M", "d0=1"])
def test_edge_cells_are_those_g_maps_out_of_the_box(shape):
    # the oracle is G on a box one level larger: a cell is an edge cell exactly
    # when its column there reaches a cell outside the original box
    s = PureState(TruncationConfig(*shape), random_grid(shape, seed=3).reshape(-1))
    big = tuple(d + 1 for d in shape)
    inside = np.zeros(big, dtype=bool)
    inside[: shape[0], : shape[1], : shape[2]] = True
    leaves = np.any(dense_generator(big, 1.0)[~inside.reshape(-1)] != 0, axis=0)
    want = leaves.reshape(big)[inside].reshape(shape)
    got = kernels.scatter(s.layout.edge.astype(complex), s.layout) != 0
    np.testing.assert_array_equal(got, want)
    assert want.any()


def test_interior_state_has_no_edge_probability():
    psi = random_grid((5, 5, 5), seed=1)
    psi[-1, :, :] = 0
    psi[:, -1, :] = 0
    psi[:, :, -1] = 0
    s = PureState(TruncationConfig(*psi.shape), psi.reshape(-1))
    assert np.sum(np.abs(s.psi[s.layout.edge]) ** 2) == 0.0
    assert not s.layout.edge.flags.writeable
