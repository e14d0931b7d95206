import math

import numpy as np
import pytest

from pnes.errors import NoisyDerivativeError, ValidationError
from pnes.fock import HamiltonianParams, PureState, TruncationConfig, basis_index, basis_state
from pnes.meanfield import closed_form
from pnes.observables import measure
from pnes.propagator import EvolutionSpec, evolve, rate_of
from pnes.states import coherent, pnes, product_state, twb


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
        finals = [evolve(s0, EvolutionSpec(params, dt=1.0 / n, steps=n)).final_state.amplitudes
                  for n in (1, 4, 100)]
        assert np.max(np.abs(finals[1] - finals[0])) < 1e-12
        assert np.max(np.abs(finals[2] - finals[0])) < 1e-12

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
        # state pressed against the cutoff leaks and the accumulator only grows
        cfg = TruncationConfig(3, 3, 3)
        s0 = basis_state(2, 2, 2, cfg)
        traj = evolve(s0, EvolutionSpec(HamiltonianParams(1.0), dt=0.01, steps=50))
        assert np.all(np.diff(traj.leakages) >= 0)
        assert traj.leakage > 0

    def test_too_many_sectors_rejected_before_diagonalizing(self, monkeypatch):
        def no_eigh(*args, **kwargs):
            raise AssertionError("eigh called")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        cfg = TruncationConfig(90, 90, 90)
        s0 = PureState(cfg, np.full(cfg.dim, cfg.dim**-0.5, dtype=complex))
        with pytest.raises(ValidationError, match="sectors"):
            evolve(s0, EvolutionSpec(HamiltonianParams(0.1), dt=0.1, steps=1))

    def test_recording_cadence(self):
        s0 = product_state(coherent(1.0, 12), pnes([1.0], 4))
        traj = evolve(s0, EvolutionSpec(HamiltonianParams(0.1), dt=0.02, steps=10, record_every=4))
        np.testing.assert_allclose(traj.times, [0.0, 0.08, 0.16, 0.2])


class TestRateOf:
    def test_conserved_observable_has_zero_rate(self):
        s0 = product_state(coherent(1.5, 20), twb(0.3, 14))
        rate = rate_of(s0, HamiltonianParams(0.1), lambda s: measure(s).diff_n)
        assert abs(rate) < 1e-10

    def test_zero_coupling(self):
        s0 = product_state(coherent(1.0, 15), twb(0.2, 10))
        assert rate_of(s0, HamiltonianParams(0.0), lambda s: measure(s).disp_plus) == 0.0

    def test_twb_dispersion_rate(self):
        x, chi, alpha = 0.3, 0.1, 1.0
        s0 = product_state(coherent(alpha, 20), twb(x, 18))
        rate = rate_of(s0, HamiltonianParams(chi), lambda s: measure(s).disp_plus)
        expected = 8 * chi * alpha * x * (1 + x * x) / (1 - x * x) ** 2
        assert rate == pytest.approx(expected, rel=1e-3)

    def test_callable_selector(self):
        from pnes.observables import expect_total_number

        alpha, chi = 1.0, 0.1
        s0 = product_state(coherent(alpha, 20), pnes([1.0], 6))
        rate = rate_of(s0, HamiltonianParams(chi), expect_total_number)
        # dN/dt = 0 at t=0 from vacuum pair (N ~ 2 (chi alpha t)^2)
        assert abs(rate) < 1e-8

    def test_noisy_derivative_raises_with_both_estimates(self):
        s0 = product_state(coherent(1.0, 15), twb(0.3, 12))
        with pytest.raises(NoisyDerivativeError) as err:
            # absurdly large step: the h and h/2 estimates cannot agree
            rate_of(s0, HamiltonianParams(0.5), lambda s: measure(s).disp_plus, h=5.0, tol=1e-12)
        assert err.value.estimate_h != err.value.estimate_h2
