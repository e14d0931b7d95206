import numpy as np
import pytest

from pnes.errors import ValidationError
from pnes.fock import HamiltonianParams, PureState, TruncationConfig, basis_index, basis_state
from pnes.propagator import EvolutionSpec, evolve

from oracle import dense_generator


class TestTruncationConfig:
    def test_dimensions(self):
        cfg = TruncationConfig(3, 4, 5)
        assert cfg.dim == 60
        assert cfg.shape == (3, 4, 5)

    @pytest.mark.parametrize("dims", [(0, 1, 1), (1, -2, 1), (1, 1, 0)])
    def test_rejects_nonpositive(self, dims):
        with pytest.raises(ValidationError):
            TruncationConfig(*dims)

    @pytest.mark.parametrize("name", ["d0", "d1", "d2"])
    def test_rejects_a_bool(self, name):
        dims = dict(d0=2, d1=2, d2=2)
        dims[name] = True
        with pytest.raises(ValidationError, match=f"{name} must be a positive integer, got True"):
            TruncationConfig(**dims)


class TestHamiltonianParams:
    def test_rejects_negative_chi(self):
        with pytest.raises(ValidationError):
            HamiltonianParams(-0.1)

    def test_rejects_nonfinite_chi(self):
        with pytest.raises(ValidationError):
            HamiltonianParams(float("nan"))

    @pytest.mark.parametrize("field, value", [("chi", True), ("chi", False), ("chi", np.True_),
                                              ("dt", True), ("dt", np.True_)],
                             ids=["chi-True", "chi-False", "chi-np.True_", "dt-True", "dt-np.True_"])
    def test_rejects_a_bool(self, field, value):
        # a bool passes the finiteness checks, so each constructor refuses it by type
        args = {"chi": 0.1, "dt": 0.1, field: value}
        with pytest.raises(ValidationError, match=f"^{field} must be finite and .*, got {value!r}$"):
            EvolutionSpec(HamiltonianParams(args["chi"]), dt=args["dt"], steps=2)


class TestPureState:
    def test_rejects_an_amplitude_count_off_the_config(self):
        with pytest.raises(ValidationError, match="length 7 != config dimension 8"):
            PureState(TruncationConfig(2, 2, 2), np.ones(7))

    @pytest.mark.parametrize("bad", [0.0, np.nan, np.inf], ids=["zero", "nan", "inf"])
    def test_rejects_a_zero_or_non_finite_vector(self, bad):
        amps = np.zeros(8, dtype=complex)
        amps[3] = bad
        with pytest.raises(ValidationError, match="finite with a nonzero entry"):
            PureState(TruncationConfig(2, 2, 2), amps)

    def test_dense_reads_are_new_arrays(self):
        amps = np.zeros(8, dtype=complex)
        amps[7] = 1.0
        s = PureState(TruncationConfig(2, 2, 2), amps)
        amps[7] = 0.0
        s.grid()[...] = 0.0
        s.amplitudes[...] = 0.0
        assert np.linalg.norm(s.psi) == 1.0
        assert s.amplitudes[7] == 1.0


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
    @pytest.mark.parametrize("shape", [(1, 1, 1), (3, 3, 3), (2, 4, 3)])
    def test_vacuum_evolves_to_itself(self, shape):
        # G annihilates |0,0,0>, so exp(G t) leaves it as it is
        s0 = basis_state(0, 0, 0, TruncationConfig(*shape))
        traj = evolve(s0, EvolutionSpec(HamiltonianParams(1.0), dt=0.5, steps=4))
        np.testing.assert_allclose(traj.final_state.amplitudes, s0.amplitudes, rtol=0, atol=1e-15)

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

