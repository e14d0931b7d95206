import numpy as np
import pytest

from pnes.errors import ValidationError
from pnes.fock import HamiltonianParams, PureState, TruncationConfig, basis_index, basis_state

from oracle import dense_generator
from test_kernels import apply_dense


def random_interior_state(cfg, seed, pad=1):
    """Random unit state with zero amplitude on the top `pad` levels of each mode."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(cfg.shape) + 1j * rng.standard_normal(cfg.shape)
    g[cfg.d0 - pad :, :, :] = 0
    g[:, cfg.d1 - pad :, :] = 0
    g[:, :, cfg.d2 - pad :] = 0
    g /= np.linalg.norm(g)
    return PureState(cfg, g.reshape(-1))


class TestTruncationConfig:
    def test_dimensions(self):
        cfg = TruncationConfig(3, 4, 5)
        assert cfg.dim == 60
        assert cfg.shape == (3, 4, 5)

    @pytest.mark.parametrize("dims", [(0, 1, 1), (1, -2, 1), (1, 1, 0)])
    def test_rejects_nonpositive(self, dims):
        with pytest.raises(ValidationError):
            TruncationConfig(*dims)


class TestHamiltonianParams:
    def test_rejects_negative_chi(self):
        with pytest.raises(ValidationError):
            HamiltonianParams(-0.1)

    def test_rejects_nonfinite_chi(self):
        with pytest.raises(ValidationError):
            HamiltonianParams(float("nan"))


class TestBasisIndex:
    def test_origin(self):
        assert basis_index(0, 0, 0, TruncationConfig(5, 5, 5)) == 0

    def test_row_major(self):
        cfg = TruncationConfig(2, 2, 2)
        assert basis_index(1, 0, 0, cfg) == 4
        assert basis_index(1, 1, 1, cfg) == 7

    def test_bijective(self):
        cfg = TruncationConfig(3, 4, 5)
        seen = {
            basis_index(n0, n1, n2, cfg)
            for n0 in range(3)
            for n1 in range(4)
            for n2 in range(5)
        }
        assert seen == set(range(cfg.dim))

    def test_out_of_range(self):
        cfg = TruncationConfig(2, 2, 2)
        with pytest.raises(ValidationError):
            basis_index(2, 0, 0, cfg)
        with pytest.raises(ValidationError):
            basis_index(0, -1, 0, cfg)


class TestInteractionGenerator:
    def test_one_pump_photon(self):
        cfg = TruncationConfig(2, 2, 2)
        out = apply_dense(basis_state(1, 0, 0, cfg).grid(), 0.7)
        expected = 0.7 * basis_state(0, 1, 1, cfg).grid()
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_annihilates_vacuum(self):
        cfg = TruncationConfig(3, 3, 3)
        out = apply_dense(basis_state(0, 0, 0, cfg).grid(), 1.0)
        assert np.all(out == 0)

    def test_real_diagonal_expectation(self):
        cfg = TruncationConfig(3, 3, 3)
        rng = np.random.default_rng(3)
        amps = rng.standard_normal(cfg.dim)
        s = PureState(cfg, amps / np.linalg.norm(amps))
        val = np.vdot(s.grid(), apply_dense(s.grid(), 0.4))
        assert abs(val.imag) < 1e-14

    def test_antisymmetry(self):
        cfg = TruncationConfig(4, 4, 4)
        s = random_interior_state(cfg, seed=5).grid()
        t = random_interior_state(cfg, seed=6).grid()
        lhs = np.vdot(s, apply_dense(t, 0.9))
        rhs = -np.conj(np.vdot(t, apply_dense(s, 0.9)))
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_matches_dense_generator(self):
        cfg = TruncationConfig(3, 4, 4)
        rng = np.random.default_rng(8)
        amps = rng.standard_normal(cfg.dim) + 1j * rng.standard_normal(cfg.dim)
        amps /= np.linalg.norm(amps)
        got = apply_dense(PureState(cfg, amps).grid(), 0.35).reshape(-1)
        want = dense_generator(cfg.shape, 0.35) @ amps
        np.testing.assert_allclose(got, want, atol=1e-13)

    def test_commutes_with_conserved_quantities(self):
        # matrix-level check on d = (4,4,4)
        from oracle import dense_ops

        shape = (4, 4, 4)
        g = dense_generator(shape, 1.0)
        ops = dense_ops(shape)
        diff = ops["n1"] - ops["n2"]
        k = ops["K"]
        # restrict to the cutoff interior: columns/rows with all occupations < 3
        interior = [
            (n0 * 4 + n1) * 4 + n2
            for n0 in range(3)
            for n1 in range(3)
            for n2 in range(3)
        ]
        for obs in (diff, k):
            comm = g @ obs - obs @ g
            assert np.max(np.abs(comm[np.ix_(interior, interior)])) < 1e-12

