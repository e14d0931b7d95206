import numpy as np
import pytest

from pnes import kernels
from pnes.fock import PureState, TruncationConfig

from oracle import dense_generator


def random_grid(shape, seed=0):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return g / np.linalg.norm(g)


def apply_dense(grid, chi):
    """G applied to a dense grid through the sector kernel."""
    psi, layout = kernels.gather(grid)
    out = kernels.apply_generator(psi, chi, np.empty_like(psi), layout)
    return kernels.scatter(out, layout)


def test_generator_is_antisymmetric_matrix():
    shape = (3, 4, 4)
    dim = np.prod(shape)
    mat = np.zeros((dim, dim))
    for j in range(dim):
        e = np.zeros(dim, dtype=np.complex128)
        e[j] = 1.0
        mat[:, j] = apply_dense(e.reshape(shape), 1.0).reshape(-1).real
    np.testing.assert_allclose(mat, -mat.T, atol=1e-14)


def test_discard_flux_zero_on_interior():
    psi = random_grid((5, 5, 5), seed=1)
    psi[-1, :, :] = 0
    psi[:, -1, :] = 0
    psi[:, :, -1] = 0
    s = PureState(TruncationConfig(*psi.shape), psi.reshape(-1))
    assert kernels.discard_flux_sq(s.psi, 1.0, s.layout) == 0.0


def test_discard_flux_matches_extended_box():
    # compare against applying the generator in a box enlarged by one level
    shape = (4, 4, 4)
    psi = random_grid(shape, seed=2)
    chi = 0.8
    big = np.zeros((5, 5, 5), dtype=np.complex128)
    big[:4, :4, :4] = psi
    out_big = (dense_generator(big.shape, chi) @ big.reshape(-1)).reshape(big.shape)
    outside = out_big.copy()
    outside[:4, :4, :4] = 0.0
    want = float(np.sum(np.abs(outside) ** 2))
    s = PureState(TruncationConfig(*shape), psi.reshape(-1))
    assert kernels.discard_flux_sq(s.psi, chi, s.layout) == pytest.approx(
        want, rel=1e-12
    )
