import math

import numpy as np
import pytest

from pnes.errors import ValidationError
from pnes.fock import PureState, TruncationConfig, basis_state
from pnes.observables import (
    edge_occupancy,
    expect_pair_amplitude,
    expect_total_number,
    measure,
    photon_number_distribution,
)
from pnes.states import coherent, pnes, product_state, tmc, twb

from oracle import dense_ops, dispersion, expect


def vacuum_pump(pair):
    return pair  # pair-sector states already carry a trivial d0 = 1 pump


class TestPairAmplitude:
    def test_twb(self):
        x = 0.5
        # brute-force (1-x^2) sum (n+1) x^{2n+1}
        expected = sum((1 - x * x) * (n + 1) * x ** (2 * n + 1) for n in range(200))
        assert expect_pair_amplitude(twb(x, 30)).real == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(x / (1 - x * x))

    def test_tmc_eigenvalue(self):
        assert expect_pair_amplitude(tmc(1.3, 30)) == pytest.approx(1.3, abs=1e-10)

    def test_single_fock_pair(self):
        s = pnes([0.0, 1.0], 4)  # |1,1>
        assert expect_pair_amplitude(s) == 0


class TestNumberExpectations:
    def test_twb_totals(self):
        s = twb(0.5, 30)
        assert expect_total_number(s) == pytest.approx(2 / 3, abs=1e-12)
        assert measure(s).diff_n == 0.0

    def test_tmc_difference(self):
        assert measure(tmc(1.0, 20)).diff_n == 0.0

    def test_bare_fock_state(self):
        s = basis_state(0, 3, 1, TruncationConfig(1, 5, 5))
        assert expect_total_number(s) == 4.0
        assert measure(s).diff_n == 2.0


class TestPairQuadratureDispersion:
    def test_vacuum(self):
        s = pnes([1.0], 3)
        assert measure(s).disp_plus == pytest.approx(1.0)

    def test_twb_closed_form(self):
        x = 0.5
        d = measure(twb(x, 30)).disp_plus
        assert d == pytest.approx(((1 + x * x) / (1 - x * x)) ** 2, abs=1e-10)
        assert d == pytest.approx(25 / 9, abs=1e-10)

    @pytest.mark.parametrize("lam", [0.5, 1.0])
    def test_tmc_is_total_number_plus_one(self, lam):
        s = tmc(lam, 30)
        assert measure(s).disp_plus == pytest.approx(expect_total_number(s) + 1.0, abs=1e-10)

    @pytest.mark.parametrize(
        "state",
        [twb(0.4, 25), tmc(0.8, 25), pnes([1.0, 0.3, 0.1], 8)],
        ids=["twb", "tmc", "pnes"],
    )
    @pytest.mark.parametrize("sign", ["plus", "minus"])
    def test_nonnegative(self, state, sign):
        assert getattr(measure(state), f"disp_{sign}") >= 0.0


class TestPumpQuadrature:
    def test_coherent_product(self):
        s = product_state(coherent(1.5, 25), twb(0.3, 15))
        assert measure(s).pump_quad == pytest.approx(3.0, abs=1e-10)

    def test_vacuum_pump(self):
        assert measure(twb(0.3, 15)).pump_quad == 0.0

    def test_scales_with_alpha(self):
        s = product_state(coherent(0.8, 20), tmc(0.5, 15))
        assert measure(s).pump_quad == pytest.approx(1.6, abs=1e-10)


class TestConservedExcitation:
    def test_fock_states(self):
        cfg = TruncationConfig(2, 2, 2)
        assert measure(basis_state(1, 0, 0, cfg)).conserved_k == 1.0
        assert measure(basis_state(0, 1, 1, cfg)).conserved_k == 1.0

    def test_coherent_pump(self):
        s = product_state(coherent(2.0, 40), pnes([1.0], 3))
        assert measure(s).conserved_k == pytest.approx(4.0, abs=1e-10)


class TestPhotonNumberDistribution:
    def test_vacuum(self):
        p = photon_number_distribution(pnes([1.0], 4), 1)
        np.testing.assert_array_equal(p, [1, 0, 0, 0])

    def test_sums_to_one_minus_leakage(self):
        s = product_state(coherent(1.0, 15), twb(0.4, 20))
        for mode in (0, 1, 2):
            assert np.sum(photon_number_distribution(s, mode)) == pytest.approx(1.0)

    def test_rejects_bad_mode(self):
        with pytest.raises(ValidationError):
            photon_number_distribution(twb(0.2, 10), 3)


class TestModelConsistencyIdentity:
    def test_twb_satisfies_identity(self):
        # <N> = sqrt(1 + 4 <A>^2) - 1 holds exactly on the twb family
        for x in (0.2, 0.4, 0.6):
            s = twb(x, 40)
            a = expect_pair_amplitude(s).real
            n = expect_total_number(s)
            assert n == pytest.approx(math.sqrt(1 + 4 * a * a) - 1, abs=1e-10)

    def test_tmc_violates_identity(self):
        s = tmc(1.0, 25)
        a = expect_pair_amplitude(s).real
        n = expect_total_number(s)
        assert abs(n - (math.sqrt(1 + 4 * a * a) - 1)) > 1e-3


class TestBruteForceEquivalence:
    """Every observable recomputed by dense matrices on d = (3,4,4)."""

    shape = (3, 4, 4)

    def random_state(self, seed=42):
        rng = np.random.default_rng(seed)
        cfg = TruncationConfig(*self.shape)
        amps = rng.standard_normal(cfg.dim) + 1j * rng.standard_normal(cfg.dim)
        amps /= np.linalg.norm(amps)
        return PureState(cfg, amps)

    def test_all_observables_match_dense(self):
        s = self.random_state()
        psi = s.amplitudes
        ops = dense_ops(self.shape)
        o = measure(s)
        assert o.pair_amp == pytest.approx(expect(ops["A"], psi), abs=1e-12)
        assert o.pair_amp_conj == pytest.approx(expect(ops["Adag"], psi), abs=1e-12)
        assert o.total_n == pytest.approx(expect(ops["N"], psi).real, abs=1e-12)
        assert o.diff_n == pytest.approx(expect(ops["n1"] - ops["n2"], psi).real, abs=1e-12)
        assert o.pump_amp == pytest.approx(expect(ops["a0"], psi), abs=1e-12)
        assert o.pump_quad == pytest.approx(expect(ops["Q"], psi).real, abs=1e-12)
        assert o.c_plus == pytest.approx(expect(ops["C_plus"], psi).real, abs=1e-12)
        assert o.disp_plus == pytest.approx(dispersion(ops["C_plus"], psi), abs=1e-12)
        assert o.disp_minus == pytest.approx(dispersion(ops["C_minus"], psi), abs=1e-12)
        assert o.conserved_k == pytest.approx(expect(ops["K"], psi).real, abs=1e-12)

    def test_marginals_match_dense(self):
        s = self.random_state(7)
        p = np.abs(s.amplitudes) ** 2
        for mode, d in zip((0, 1, 2), self.shape):
            got = photon_number_distribution(s, mode)
            occupations = np.array(
                [
                    [(i // (4 * 4), (i // 4) % 4, i % 4)[mode] for i in range(s.config.dim)]
                ]
            ).reshape(-1)
            want = np.array([p[occupations == n].sum() for n in range(d)])
            np.testing.assert_allclose(got, want, atol=1e-12)


class TestEdgeOccupancy:
    def test_interior_state_has_none(self):
        assert edge_occupancy(twb(0.2, 20)) < 1e-12

    def test_boundary_state_reports_mass(self):
        s = basis_state(0, 4, 0, TruncationConfig(1, 5, 5))
        assert edge_occupancy(s) == pytest.approx(1.0)
