"""Property tests of the sector layout against the dense-matrix oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnes import kernels
from pnes.fock import HamiltonianParams, PureState, TruncationConfig
from pnes.observables import disp_plus_rate, measure
from pnes.propagator import EvolutionSpec, evolve

from oracle import dense_generator, dense_ops


def sector_index(shape):
    """n1 - n2 of every (n1, n2) cell of the box."""
    _, d1, d2 = shape
    return np.subtract.outer(np.arange(d1), np.arange(d2))


@st.composite
def sector_states(draw, min_sectors=0, all_sectors=False):
    """(grid, occupied deltas): a random normalized grid on a subset of sectors."""
    shape = tuple(draw(st.integers(1, 5)) for _ in range(3))
    every = list(range(-(shape[2] - 1), shape[1]))
    if all_sectors:
        chosen = set(every)
    else:
        chosen = draw(st.sets(st.sampled_from(every), min_size=min_sectors))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = 1j * rng.standard_normal(shape)
    if not draw(st.booleans()):  # sometimes purely imaginary
        grid += rng.standard_normal(shape)
    grid[:, ~np.isin(sector_index(shape), sorted(chosen))] = 0.0
    if chosen:
        grid /= np.linalg.norm(grid)
    return grid, tuple(sorted(chosen))


@settings(max_examples=60, deadline=None)
@given(sector_states())
def test_gather_then_scatter_is_identity(state):
    grid, chosen = state
    psi, layout = kernels.gather(grid)
    assert layout.deltas == chosen
    assert np.array_equal(kernels.scatter(psi, layout), grid)
    assert np.all(psi[:, ~layout.valid] == 0.0)
    if chosen:  # PureState refuses an all-zero vector
        amps = grid.reshape(-1)
        assert PureState(TruncationConfig(*grid.shape), amps).amplitudes.tobytes() == amps.tobytes()
    # the padded layout never costs twice the dense grid
    assert psi.size < 2 * grid.size


@settings(max_examples=60, deadline=None)
@given(sector_states(min_sectors=1), st.floats(0.25, 2.0))
def test_measure_norm_and_leakage_match_dense(state, scale):
    grid, _ = state
    grid = scale * grid
    s = PureState(TruncationConfig(*grid.shape), grid.reshape(-1))
    # the edge cells, as G on a box one level larger maps them out of the box
    big = tuple(d + 1 for d in grid.shape)
    inside = np.zeros(big, dtype=bool)
    inside[: grid.shape[0], : grid.shape[1], : grid.shape[2]] = True
    leaves = np.any(dense_generator(big, 1.0)[~inside.reshape(-1)] != 0, axis=0)
    edge = leaves.reshape(big)[inside].reshape(grid.shape)
    o = measure(s)
    assert abs(o.norm - np.linalg.norm(grid)) <= 1e-14
    assert abs(o.leakage - np.sum(np.abs(grid[edge]) ** 2)) <= 1e-14


@settings(max_examples=60, deadline=None)
@given(sector_states(min_sectors=1), st.floats(0.0, 0.5))
def test_disp_plus_rate_matches_dense_equation_of_motion(state, chi):
    grid, _ = state
    v = grid.reshape(-1)
    c = dense_ops(grid.shape)["C_plus"]
    gv = dense_generator(grid.shape, chi) @ v
    cv = c @ v
    want = 2 * np.vdot(gv, c @ cv).real - 4 * np.vdot(v, cv).real * np.vdot(gv, cv).real
    s = PureState(TruncationConfig(*grid.shape), v)
    assert abs(disp_plus_rate(s, chi) - want) <= 1e-12


@pytest.mark.parametrize("shape", [(1, 3, 3), (3, 4, 4), (2, 3, 5), (5, 2, 2), (4, 1, 3)])
def test_pair_quadrature_commutator_is_chi_k_q(shape):
    # the identity disp_plus_rate rests on: C G - G C = chi (A A+ - A+ A) Q in the
    # truncated box, with A A+ - A+ A diagonal and equal to the layout's weights
    chi = 0.7
    ops = dense_ops(shape)
    c, g = ops["C_plus"], dense_generator(shape, chi)
    k = ops["A"] @ ops["Adag"] - ops["Adag"] @ ops["A"]
    np.testing.assert_allclose(c @ g - g @ c, chi * k @ ops["Q"], rtol=0, atol=1e-13)
    np.testing.assert_allclose(k, np.diag(np.diag(k)), rtol=0, atol=1e-13)
    deltas = tuple(range(-(shape[2] - 1), shape[1]))
    layout = kernels.sector_layout(shape, deltas)
    weights = np.broadcast_to(layout.raise_w - layout.n1n2, (shape[0],) + layout.valid.shape)
    np.testing.assert_allclose(kernels.scatter(weights.astype(complex), layout).reshape(-1),
                               np.diag(k), rtol=0, atol=1e-13)


@settings(max_examples=30, deadline=None)
@given(sector_states(min_sectors=1))
def test_disp_plus_rate_vanishes_without_coupling(state):
    grid, _ = state
    s = PureState(TruncationConfig(*grid.shape), grid.reshape(-1))
    assert disp_plus_rate(s, 0.0) == 0.0


@settings(max_examples=30, deadline=None)
@given(sector_states(min_sectors=1), st.floats(0.0, 0.2))
def test_evolve_keeps_sectors_and_conserved_quantities(state, chi):
    grid, chosen = state
    s0 = PureState(TruncationConfig(*grid.shape), grid.reshape(-1))
    traj = evolve(s0, EvolutionSpec(HamiltonianParams(chi), dt=0.005, steps=40, record_every=5))
    final = traj.final_state.grid()
    unoccupied = ~np.isin(sector_index(grid.shape), chosen)
    assert np.all(final[:, unoccupied] == 0.0)
    diffs = [o.diff_n for o in traj.observables]
    ks = [o.conserved_k for o in traj.observables]
    # criterion-3 bounds: n1 - n2 drift < 1e-10, K drift < 1e-9
    assert max(abs(d - diffs[0]) for d in diffs) < 1e-10
    assert max(ks) - min(ks) < 1e-9


@settings(max_examples=20, deadline=None)
@given(sector_states(all_sectors=True), st.floats(0.0, 0.25))
def test_all_sectors_match_dense_exponential(state, chi):
    grid, _ = state
    t, dt = 0.5, 0.005
    s0 = PureState(TruncationConfig(*grid.shape), grid.reshape(-1))
    traj = evolve(s0, EvolutionSpec(HamiltonianParams(chi), dt=dt, steps=round(t / dt)))
    # exp(G t) = exp(-i H t) with H = i G Hermitian
    w, v = np.linalg.eigh(1j * dense_generator(grid.shape, chi))
    want = v @ (np.exp(-1j * w * t) * (v.conj().T @ grid.reshape(-1)))
    np.testing.assert_allclose(traj.final_state.amplitudes, want, rtol=0, atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 2.0), st.floats(0.1, 3.0))
def test_evolve_keeps_inner_products(seed, chi, t):
    # G is antisymmetric, so exp(G t) keeps <a|b> on a box with every sector occupied
    shape = (3, 4, 3)
    rng = np.random.default_rng(seed)
    a, b = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(2))
    spec = EvolutionSpec(HamiltonianParams(chi), dt=t / 4, steps=4)
    finals = [evolve(PureState(TruncationConfig(*shape), g.reshape(-1) / np.linalg.norm(g)), spec)
              .final_state for g in (a, b)]
    assert len(finals[0].layout.deltas) == shape[1] + shape[2] - 1
    want = np.vdot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
    assert abs(np.vdot(finals[0].amplitudes, finals[1].amplitudes) - want) <= 1e-12
