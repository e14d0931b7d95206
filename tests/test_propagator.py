import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pnes import propagator
from pnes.errors import ValidationError
from pnes.fock import HamiltonianParams, PureState, TruncationConfig, basis_index, basis_state
from pnes.meanfield import closed_form
from pnes.observables import records
from pnes.propagator import EvolutionSpec, evolve
from pnes.states import coherent, initial_state, pnes, product_state, twb

from oracle import dense_generator


def two_state_populations(chi, t, dt):
    cfg = TruncationConfig(2, 2, 2)
    s0 = basis_state(1, 0, 0, cfg)
    steps = int(round(t / dt))
    spec = EvolutionSpec(HamiltonianParams(chi), dt=dt, steps=steps)
    traj = evolve(s0, spec)
    psi = traj.final_state.amplitudes
    p_pump = abs(psi[basis_index(1, 0, 0, cfg)]) ** 2
    p_pair = abs(psi[basis_index(0, 1, 1, cfg)]) ** 2
    return p_pump, p_pair, traj


class TestEvolutionSpec:
    def test_rejects_zero_dt(self):
        with pytest.raises(ValidationError):
            EvolutionSpec(HamiltonianParams(1.0), dt=0.0, steps=1)

    def test_rejects_negative_steps(self):
        with pytest.raises(ValidationError):
            EvolutionSpec(HamiltonianParams(1.0), dt=0.1, steps=-1)

    # rows: t = 0, every record_every-th step and the last
    @pytest.mark.parametrize("steps, record_every", [(99_999, 1), (199_997, 2),
                                                     (99_999 * 10**300, 10**300)],
                             ids=["every-step", "every-2nd", "every-1e300th"])
    def test_accepts_100000_rows(self, steps, record_every):
        EvolutionSpec(HamiltonianParams(0.1), dt=1e-300, steps=steps, record_every=record_every)

    @pytest.mark.parametrize("steps, record_every", [(100_000, 1), (199_999, 2),
                                                     (100_000 * 10**300, 10**300)],
                             ids=["every-step", "every-2nd", "every-1e300th"])
    def test_refuses_100001_rows(self, steps, record_every):
        with pytest.raises(ValidationError, match="would record 100001 rows, more than the 100000"):
            EvolutionSpec(HamiltonianParams(0.1), dt=1e-300, steps=steps, record_every=record_every)


@functools.cache
def _small_box():
    return initial_state("vacuum", 0.0, 1.0, 0, 4)


def _random_state(shape, seed):
    rng = np.random.default_rng(seed)
    grid = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return PureState(TruncationConfig(*shape), grid.reshape(-1))


def _assert_sparse_records_are_full_records(s0, chi, dt, steps, record_every):
    """The run at record_every holds the full run's records at their shared times, bit for bit."""
    params = HamiltonianParams(chi)
    full = evolve(s0, EvolutionSpec(params, dt=dt, steps=steps))
    sparse = evolve(s0, EvolutionSpec(params, dt=dt, steps=steps, record_every=record_every))
    at = [*range(0, steps, record_every), steps]  # the tail record at the last step
    np.testing.assert_array_equal(sparse.times, full.times[at])
    assert sparse.observables == [full.observables[k] for k in at]
    np.testing.assert_array_equal(sparse.final_state.psi, full.final_state.psi)


log_uniform = st.floats(-320.0, 308.0).map(lambda e: 10.0**e)


# a few steps each recorded, or up to 10**320 steps recorded only at the end
step_counts = st.integers(0, 5) | st.builds(lambda m, e: m * 10**e, st.integers(1, 9),
                                            st.integers(1, 320))


@settings(max_examples=150, deadline=None)
@given(log_uniform, log_uniform, st.sampled_from([1.0, -1.0]), step_counts)
# both were refused only through an overflow in the old bound's h * h or chi * chi
@example(chi=0.0, dt=3.6e272, sign=1.0, steps=5)
@example(chi=1.2e281, dt=3.8e-317, sign=1.0, steps=1)
def test_spec_refuses_or_every_record_is_finite(chi, dt, sign, steps):
    try:
        spec = EvolutionSpec(HamiltonianParams(chi), dt=sign * dt, steps=steps,
                             record_every=steps if steps > 5 else 1)
    except ValidationError:
        return
    traj = evolve(_small_box(), spec)
    assert np.all(np.isfinite(traj.times))
    assert np.all(np.isfinite([(o.norm, o.leakage) for o in traj.observables]))


@settings(max_examples=40, deadline=None)
@given(st.tuples(st.integers(1, 6), st.integers(1, 5), st.integers(1, 5)),
       st.integers(0, 2**32 - 1), st.floats(0.01, 2.0),
       st.floats(-0.5, 0.5).filter(lambda dt: dt != 0.0), st.integers(0, 30), st.integers(1, 30))
def test_records_at_shared_times_are_bit_identical(shape, seed, chi, dt, steps, record_every):
    _assert_sparse_records_are_full_records(_random_state(shape, seed), chi, dt, steps,
                                            record_every)


class TestEvolve:
    def test_zero_coupling_is_identity(self):
        s0 = product_state(coherent(1.0, 15), twb(0.3, 12))
        spec = EvolutionSpec(HamiltonianParams(0.0), dt=0.05, steps=40)
        traj = evolve(s0, spec)
        np.testing.assert_allclose(traj.final_state.amplitudes, s0.amplitudes, atol=1e-14)

    @pytest.mark.parametrize("chi_t", [0.3, 1.0])
    def test_two_state_rotation(self, chi_t):
        p_pump, p_pair, _ = two_state_populations(1.0, chi_t, dt=0.005)
        assert p_pump == pytest.approx(math.cos(chi_t) ** 2, abs=1e-8)
        assert p_pair == pytest.approx(math.sin(chi_t) ** 2, abs=1e-8)

    def test_step_count_only_sets_the_output_grid(self):
        s0 = product_state(coherent(2.0, 25), twb(0.3, 14))
        params = HamiltonianParams(0.3)
        ns = (1, 4, 100)
        # n (1 / n) is exactly 1.0 for each n, so each final state is exp(G t) s0 at
        # the same t = 1.0, read from the same spectrum
        assert all(n * (1.0 / n) == 1.0 for n in ns)
        finals = [evolve(s0, EvolutionSpec(params, dt=1.0 / n, steps=n)).final_state.amplitudes
                  for n in ns]
        np.testing.assert_array_equal(finals[1], finals[0])
        np.testing.assert_array_equal(finals[2], finals[0])

    def test_time_reversal(self):
        s0 = product_state(coherent(1.5, 20), twb(0.3, 14))
        params = HamiltonianParams(0.2)
        fwd = evolve(s0, EvolutionSpec(params, dt=0.01, steps=100))
        back = evolve(fwd.final_state, EvolutionSpec(params, dt=-0.01, steps=100))
        assert np.linalg.norm(back.final_state.amplitudes - s0.amplitudes) < 1e-9

    def test_small_time_pair_number_matches_model(self):
        # <N>(t) = 2 sinh^2(chi alpha t) + O((chi alpha t)^4 corrections)
        alpha, chi, t = 2.0, 0.05, 0.5  # chi*alpha*t = 0.05
        s0 = product_state(coherent(alpha, 30), pnes([1.0], 8))
        traj = evolve(s0, EvolutionSpec(HamiltonianParams(chi), dt=0.01, steps=50))
        n_exact = traj.observables[-1].total_n
        _, n_model = closed_form(chi * alpha * t)
        assert abs(n_exact - n_model) / n_model < 1e-3

    def test_conservation_along_trajectory(self):
        s0 = product_state(coherent(2.0, 35), pnes([1.0], 10))
        traj = evolve(s0, EvolutionSpec(HamiltonianParams(0.05), dt=0.01, steps=100))
        diffs = [abs(o.diff_n) for o in traj.observables]
        ks = [o.conserved_k for o in traj.observables]
        assert max(diffs) < 1e-10
        assert max(ks) - min(ks) < 1e-9
        assert traj.leakage < 1e-10
        assert traj.norm_drift < 1e-8

    def test_leakage_monotone(self):
        # |2, 2, 2> sits on both edges of a 3-level box, and chain K = 4 holds only
        # that cell there, so the state stays wholly on the edge: 1 at every time
        cfg = TruncationConfig(3, 3, 3)
        s0 = basis_state(2, 2, 2, cfg)
        traj = evolve(s0, EvolutionSpec(HamiltonianParams(1.0), dt=0.01, steps=50))
        leakages = [o.leakage for o in traj.observables]
        np.testing.assert_allclose(leakages, 1.0, rtol=0, atol=1e-12)
        assert traj.leakage == np.max(leakages)

    def test_too_many_sectors_rejected_before_diagonalizing(self, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("svd called")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        cfg = TruncationConfig(100, 100, 100)
        s0 = PureState(cfg, np.full(cfg.dim, cfg.dim**-0.5, dtype=complex))
        with pytest.raises(ValidationError, match="sectors"):
            evolve(s0, EvolutionSpec(HamiltonianParams(0.1), dt=0.1, steps=1))

    def test_refusal_counts_the_stepper_peak(self):
        # B, U, Wt and the SVD's temporaries are live at once: the spectrum's peak is
        # about the P J L^2 float64 that the refusal rule counts, not half of it
        shape = (30, 30, 30)
        rng = np.random.default_rng(3)
        grid = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        s0 = PureState(TruncationConfig(*shape), grid.reshape(-1))
        J = s0.psi.shape[2]
        assert J == 59
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            at, width = propagator._chain_spectrum(s0.psi, s0.layout, 0.3)
            at([0.1] * width)  # one batch, as evolve reads it
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= 1.25 * 8 * 30 * J * 30**2

    @pytest.mark.parametrize("field, value", [
        ("steps", 2.5), ("steps", True), ("record_every", 2.0), ("record_every", True),
        ("record_every", 0),
    ])
    def test_non_integer_counts_rejected_before_diagonalizing(self, monkeypatch, field, value):
        def no_svd(*args, **kwargs):
            raise AssertionError("svd called")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        s0 = product_state(coherent(1.0, 12), pnes([1.0], 4))
        counts = {"steps": 4, "record_every": 1, field: value}
        with pytest.raises(ValidationError, match=field):
            evolve(s0, EvolutionSpec(HamiltonianParams(0.1), dt=0.1, **counts))

    def test_evolving_a_final_state_again_restarts_leakage(self):
        # the leakage is read from each recorded state, so a second run starts
        # from the edge probability the first one ended with
        spec = EvolutionSpec(HamiltonianParams(1.0), dt=0.01, steps=50)
        first = evolve(basis_state(2, 2, 2, TruncationConfig(3, 3, 3)), spec)
        assert first.leakage > 0
        second = evolve(first.final_state, spec)
        assert second.observables[0].leakage == first.observables[-1].leakage

    def test_leakage_is_a_probability_whatever_the_step(self):
        # vacuum pair, alpha 2, chi 1, pair_dim 4 up to t = 5e7: an Euler sum of
        # dt^2 times the boundary flux read 2.2e14 here after 50 steps of 1e6
        s0 = initial_state("vacuum", 0.0, 2.0, 0, 4)
        params = HamiltonianParams(1.0)
        every = evolve(s0, EvolutionSpec(params, dt=1e6, steps=50))
        at_end = evolve(s0, EvolutionSpec(params, dt=1e6, steps=50, record_every=50))
        once = evolve(s0, EvolutionSpec(params, dt=5e7, steps=1))
        for traj in (every, at_end, once):
            assert 0.0 <= traj.leakage <= 1.0
            assert traj.norm_drift < 1e-12
        # all three read the spectrum at t = 50 * 1e6 = 5e7
        assert at_end.observables[-1].leakage == once.observables[-1].leakage
        assert every.observables[-1].leakage == once.observables[-1].leakage

    def test_extremes_are_those_of_the_records(self):
        # vacuum pair on four levels: probability reaches the pair edge and leaves it
        s0 = initial_state("vacuum", 0.0, 2.0, 0, 4)
        traj = evolve(s0, EvolutionSpec(HamiltonianParams(1.0), dt=0.1, steps=30))
        leakages = [o.leakage for o in traj.observables]
        assert len(set(leakages)) > 1
        assert traj.leakage == max(leakages)
        assert traj.norm_drift == max(abs(o.norm**2 - 1) for o in traj.observables)

    def test_sparse_records_match_every_step_records(self):
        s0 = product_state(coherent(1.5, 20), twb(0.3, 14))
        _assert_sparse_records_are_full_records(s0, 0.2, 0.05, 50, 7)

    @pytest.mark.parametrize("s0, chi, dt, steps", [
        (initial_state("twb", 0.5, 4.0, 0, 40), 0.1, 0.01, 200),
        # block 2 holds chains K = 2 and K = 10, so some blocks hold two chains
        (_random_state((8, 6, 6), 11), 0.7, 0.05, 60),
    ], ids=["trajectory", "two-chain-block"])
    @pytest.mark.parametrize("record_every", [1, 7, 20])
    def test_records_do_not_depend_on_the_output_grid(self, s0, chi, dt, steps, record_every):
        _assert_sparse_records_are_full_records(s0, chi, dt, steps, record_every)

    @pytest.mark.parametrize("record_every, ks", [
        (10**6, [10**6]), (6 * 10**5, [6 * 10**5, 10**6]),
    ])
    def test_unrecorded_steps_are_never_computed(self, monkeypatch, record_every, ks):
        calls, widths, chain_spectrum = [], [], propagator._chain_spectrum

        def counting(*args):
            at, width = chain_spectrum(*args)
            widths.append(width)
            return (lambda ts: calls.extend(ts) or at(ts)), width

        monkeypatch.setattr(propagator, "_chain_spectrum", counting)
        s0 = product_state(coherent(1.0, 12), pnes([1.0], 4))
        dt = 1e-6
        traj = evolve(s0, EvolutionSpec(HamiltonianParams(0.1), dt=dt, steps=10**6,
                                        record_every=record_every))
        # one batch: the recorded times, padded by repeating the last to a multiple of 8
        assert widths[0] >= 8 and widths[0] % 8 == 0
        assert calls == [k * dt for k in ks] + [ks[-1] * dt] * (8 - len(ks))
        assert len(traj.times) == len(ks) + 1 and traj.times[-1] == 10**6 * dt

    def test_recording_cadence(self):
        s0 = product_state(coherent(1.0, 12), pnes([1.0], 4))
        traj = evolve(s0, EvolutionSpec(HamiltonianParams(0.1), dt=0.02, steps=10, record_every=4))
        np.testing.assert_allclose(traj.times, [0.0, 0.08, 0.16, 0.2])

    def test_zero_steps_returns_a_copy_of_the_input(self):
        s = initial_state("twb", 0.3, 1.0, 0, 12)
        before = s.psi.copy()
        final = evolve(s, EvolutionSpec(HamiltonianParams(0.1), dt=0.1, steps=0)).final_state
        assert final.psi is not s.psi
        final.psi[...] = 0.0
        np.testing.assert_array_equal(s.psi, before)


class TestFoldedBlocks:
    """The K-chains folded into max(d0, M) blocks of min(d0, M) cells."""

    # odd L leaves B a row with no singular value; in the two-odd-chains boxes block 2
    # holds two chains of three cells, which give B a zero singular value
    @pytest.mark.parametrize("shape", [(7, 4, 5), (4, 5, 4), (3, 6, 5), (7, 5, 5), (5, 7, 7),
                                       (8, 6, 6), (6, 8, 8)],
                             ids=["d0>M", "d0=M", "d0<M", "odd-L-d0>M", "odd-L-d0<M",
                                  "two-odd-chains-d0>M", "two-odd-chains-d0<M"])
    def test_matches_dense_exponential(self, shape):
        rng = np.random.default_rng(7)
        grid = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        grid /= np.linalg.norm(grid)
        chi, t = 0.7, 1.3
        s0 = PureState(TruncationConfig(*shape), grid.reshape(-1))
        traj = evolve(s0, EvolutionSpec(HamiltonianParams(chi), dt=t / 5, steps=5))
        # exp(G t) = exp(-i H t) with H = i G Hermitian
        w, v = np.linalg.eigh(1j * dense_generator(shape, chi))
        want = v @ (np.exp(-1j * w * t) * (v.conj().T @ grid.reshape(-1)))
        np.testing.assert_allclose(traj.final_state.amplitudes, want, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("shape, other", [
        ((8, 6, 6), [(7, 3), (6, 4), (5, 5)]),
        ((6, 8, 8), [(3, 7), (4, 6), (5, 5)]),
    ], ids=["d0>M", "d0<M"])
    def test_two_odd_chains_in_one_block_stay_apart(self, shape, other):
        # block 2 holds chain K = 2 and chain K = 10 (cells (n0, m) listed in other),
        # three cells each, so both have the eigenvalue 0; only chain 2 is occupied
        cfg = TruncationConfig(*shape)
        s0 = basis_state(2, 0, 0, cfg)
        traj = evolve(s0, EvolutionSpec(HamiltonianParams(1.0), dt=0.05, steps=60))
        final = traj.final_state.grid()
        assert max(abs(final[n0, m, m]) for n0, m in other) <= 1e-13
        assert abs(final[2, 0, 0]) < 0.99  # chain 2 did move
        ks = [o.conserved_k for o in traj.observables]
        assert max(abs(k - 2.0) for k in ks) <= 1e-12
        assert max(abs(o.diff_n) for o in traj.observables) <= 1e-12

    def test_sectors_start_matches_pure_state_start(self):
        pump, pair = coherent(1.5, 12), twb(0.3, 14)
        spec = EvolutionSpec(HamiltonianParams(0.2), dt=0.1, steps=10, record_every=5)
        s = product_state(pump, pair)
        from_sectors = evolve(s, spec)
        from_state = evolve(PureState(s.config, s.amplitudes), spec)
        assert isinstance(from_sectors.final_state, PureState)
        np.testing.assert_allclose(from_sectors.final_state.amplitudes,
                                   from_state.final_state.amplitudes, rtol=0, atol=1e-14)
        assert from_sectors.final_state.config == from_state.final_state.config
        assert from_sectors.leakage == pytest.approx(from_state.leakage, rel=1e-12)
        np.testing.assert_allclose([o.norm for o in from_sectors.observables],
                                   [o.norm for o in from_state.observables], rtol=0, atol=1e-14)

    @pytest.mark.parametrize("shape", [(1, 4, 5), (6, 1, 3)], ids=["pair-only", "M=1"])
    def test_one_cell_blocks_never_move(self, shape):
        # L = 1: G has no hop and B no column, so U = [[+-1]] gives back every bit
        rng = np.random.default_rng(5)
        grid = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        s0 = PureState(TruncationConfig(*shape), grid.reshape(-1))
        final = evolve(s0, EvolutionSpec(HamiltonianParams(0.9), dt=0.3, steps=4)).final_state
        np.testing.assert_array_equal(final.psi, s0.psi)

    def test_a_real_state_stays_real(self):
        s0 = initial_state("twb", 0.5, 4.0, 0, 40)
        assert not np.any(s0.psi.imag)
        traj = evolve(s0, EvolutionSpec(HamiltonianParams(0.1), dt=0.01, steps=200))
        assert np.all(traj.final_state.psi.imag == 0.0)
        assert all(o.pair_amp.imag == 0.0 for o in traj.observables)  # im_pair_amp


def _trajectory_state():
    """perfbench's trajectory.cfg: coherent(4) x twb(0.5) on the (50, 40, 40) box, a real state."""
    return initial_state("twb", 0.5, 4.0, 0, 40)


class TestBatches:
    """``at`` reads a fixed-width batch of times as real rows; evolve pads the last batch."""

    @pytest.mark.parametrize("size, width", [
        (2000, 8),  # trajectory.cfg: 2000 cells, one row
        (2 * 2000, 4),  # the same box with an imaginary part
        (170 * 170, 1),  # compare at alpha 10 on the (170, 170) box
        (5 * 2**17, 1),  # never fewer than one
        (16384 // 3, 2), (16384 // 7, 4), (16384 // 23, 16), (1, 16384),
    ])
    def test_width_follows_the_byte_budget(self, size, width):
        assert propagator._batch_width(size) == width

    @pytest.mark.parametrize("s0, chi, dt, width", [
        (_trajectory_state(), 0.1, 0.01, 8),
        (_random_state((8, 6, 6), 11), 0.7, 0.05, 8),  # complex: two rows
    ], ids=["real", "complex"])
    def test_records_do_not_depend_on_their_place_in_a_batch(self, s0, chi, dt, width):
        assert propagator._chain_spectrum(s0.psi, s0.layout, chi)[1] == width
        # one full batch and a last batch of three records padded to the width; at
        # record_every 2 and steps each time sits elsewhere in its batch
        steps = width + 3
        for record_every in (2, steps):
            _assert_sparse_records_are_full_records(s0, chi, dt, steps, record_every)

    @pytest.mark.parametrize("s0, chi, width", [
        (_small_box(), 0.3, 240),
        (_random_state((3, 4, 5), 7), 0.7, 80),  # complex: two rows
        (_random_state((6, 5, 5), 7), 0.7, 24),
    ], ids=["real", "complex", "complex-24"])
    def test_a_record_has_the_same_bits_in_a_batch_of_any_multiple_of_8(self, s0, chi, width):
        at, got_width = propagator._chain_spectrum(s0.psi, s0.layout, chi)
        assert got_width == width
        ts = [0.05 * k for k in range(1, width + 1)]
        full = at(ts)
        for n in range(8, width, 8):
            x = at(ts[:n])
            np.testing.assert_array_equal(x, full[..., :n])
            assert records(x, s0.layout, n) == records(full, s0.layout, n)

    @pytest.mark.parametrize("s0, steps, batches", [
        (_small_box(), 1, [8]), (_small_box(), 9, [16]), (_small_box(), 241, [240, 8]),
        (_random_state((10, 8, 8), 7), 5, [4, 4]),  # width 4: a short batch is padded to 4
    ], ids=["1-step", "9-steps", "241-steps", "width-4"])
    def test_a_short_batch_is_padded_to_a_multiple_of_8(self, monkeypatch, s0, steps, batches):
        got, chain_spectrum = [], propagator._chain_spectrum

        def counting(*args):
            at, width = chain_spectrum(*args)
            return (lambda ts: got.append(len(ts)) or at(ts)), width

        monkeypatch.setattr(propagator, "_chain_spectrum", counting)
        traj = evolve(s0, EvolutionSpec(HamiltonianParams(0.1), dt=0.01, steps=steps))
        assert got == batches and len(traj.observables) == steps + 1

    def test_complex_rows_are_the_dense_exponential(self):
        shape, chi = (5, 4, 6), 0.7
        rng = np.random.default_rng(13)
        grid = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        grid /= np.linalg.norm(grid)
        s0 = PureState(TruncationConfig(*shape), grid.reshape(-1))
        at, width = propagator._chain_spectrum(s0.psi, s0.layout, chi)
        ts = [0.05 * k for k in range(1, width + 1)]
        x = at(ts)
        assert x.shape == (*s0.psi.shape, 2, width)
        w, v = np.linalg.eigh(1j * dense_generator(shape, chi))
        c0 = v.conj().T @ grid.reshape(-1)
        for k, t in enumerate(ts):
            want = v @ (np.exp(-1j * w * t) * c0)
            got = propagator._state(x[..., k], s0.layout).amplitudes
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_evolve_peak_on_the_trajectory_config(self):
        s0 = _trajectory_state()
        spec = EvolutionSpec(HamiltonianParams(0.1), dt=0.01, steps=200)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            evolve(s0, spec)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= 1.5e6

