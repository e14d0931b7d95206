import math

import numpy as np
import pytest

from pnes import kernels
from pnes.errors import DimensionTooSmallError, ValidationError
from pnes.observables import (
    expect_pair_amplitude,
    expect_total_number,
    measure,
    photon_number_distribution,
)
from pnes.states import (
    coherent,
    initial_state,
    min_dimension_tmc,
    min_dimension_twb,
    pnes,
    product_state,
    pump_dimension,
    tmc,
    twb,
)

from oracle import dense_ops


def i0_quadrature(z, panels=20000):
    """(1/pi) * integral_0^pi exp(z cos theta) dtheta by composite Simpson."""
    theta = np.linspace(0.0, math.pi, 2 * panels + 1)
    f = np.exp(z * np.cos(theta))
    h = theta[1] - theta[0]
    weights = np.ones_like(f)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float(np.sum(weights * f) * h / 3.0) / math.pi


class TestCoherent:
    def test_vacuum(self):
        mode = coherent(0.0, 5)
        np.testing.assert_array_equal(mode.amplitudes, [1, 0, 0, 0, 0])
        assert mode.tail_mass == 0.0

    def test_amplitude_ratio(self):
        mode = coherent(1.0, 40)
        assert mode.amplitudes[1] / mode.amplitudes[0] == pytest.approx(1.0, abs=1e-12)

    def test_mean_photon_number(self):
        mode = coherent(2.0, 40)
        n_mean = float(np.sum(np.arange(40) * np.abs(mode.amplitudes) ** 2))
        assert n_mean == pytest.approx(4.0, abs=1e-10)

    def test_unit_norm(self):
        assert np.linalg.norm(coherent(1.7, 30).amplitudes) == pytest.approx(1.0)

    def test_tail_warning(self):
        assert coherent(3.0, 5).tail_warning
        assert not coherent(3.0, 40).tail_warning

    @pytest.mark.parametrize("d", [0, -3])
    def test_rejects_an_empty_mode(self, d):
        with pytest.raises(ValidationError, match="dimension must be >= 1"):
            coherent(1.0, d)


class TestBesselI0:
    def test_zero(self):
        assert np.i0(0.0) == 1.0

    @pytest.mark.parametrize("z", [0.5, 2.0, 7.0, 25.0])
    def test_matches_quadrature(self, z):
        assert np.i0(z) == pytest.approx(i0_quadrature(z), rel=1e-12)

    def test_monotone(self):
        assert np.i0(3.0) > np.i0(2.0)


class TestTwb:
    def test_zero_is_pair_vacuum(self):
        s = twb(0.0, 4)
        assert abs(s.amplitudes[0]) == pytest.approx(1.0)
        assert np.linalg.norm(s.amplitudes[1:]) == 0.0

    def test_mean_total_number(self):
        # brute-force sum over 2n (1-x^2) x^{2n}
        x, d = 0.5, 30
        expected = sum(2 * n * (1 - x * x) * x ** (2 * n) for n in range(200))
        assert expect_total_number(twb(x, d)) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(2 / 3)

    def test_pair_coefficient(self):
        s = twb(0.5, 30)
        idx = 1 * 30 + 1  # |n1=1, n2=1>
        assert abs(s.amplitudes[idx]) == pytest.approx(math.sqrt(0.75) * 0.5, abs=1e-12)

    def test_thermal_marginal(self):
        x, d = 0.6, 40
        p = photon_number_distribution(twb(x, d), 1)
        expected = (1 - x * x) * x ** (2 * np.arange(d))
        np.testing.assert_allclose(p, expected, atol=1e-12)

    def test_parameter_domain(self):
        with pytest.raises(ValidationError):
            twb(1.0, 10)
        with pytest.raises(ValidationError):
            twb(-0.1, 10)

    def test_dimension_too_small(self):
        with pytest.raises(DimensionTooSmallError):
            twb(0.9, 5)


class TestTmc:
    def test_zero_is_pair_vacuum(self):
        s = tmc(0.0, 4)
        assert abs(s.amplitudes[0]) == pytest.approx(1.0)

    def test_normalization_factor(self):
        s = tmc(1.0, 25)
        # amplitude on |0,0> is 1/sqrt(I0(2))
        assert abs(s.amplitudes[0]) == pytest.approx(1.0 / math.sqrt(i0_quadrature(2.0)), abs=1e-12)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_eigenstate_of_pair_annihilation(self, lam):
        s = tmc(lam, 30)
        resid = dense_ops(s.config.shape)["A"] @ s.amplitudes - lam * s.amplitudes
        assert np.linalg.norm(resid) < 1e-10

    def test_pair_amplitude_is_lambda(self):
        assert expect_pair_amplitude(tmc(0.8, 25)) == pytest.approx(0.8, abs=1e-12)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_sub_poisson_marginal(self, lam):
        p = photon_number_distribution(tmc(lam, 30), 1)
        n = np.arange(p.size)
        mean = float(np.sum(n * p))
        var = float(np.sum(n * n * p)) - mean * mean
        assert var / mean < 1.0

    def test_marginal_matches_closed_form(self):
        lam, d = 1.0, 25
        p = photon_number_distribution(tmc(lam, d), 1)
        n = np.arange(d)
        expected = lam ** (2 * n) / (np.array([math.factorial(k) for k in n], float) ** 2)
        expected /= i0_quadrature(2 * lam)
        np.testing.assert_allclose(p, expected, atol=1e-12)

    def test_dimension_too_small(self):
        with pytest.raises(DimensionTooSmallError):
            tmc(2.0, 3)

    def test_parameter_up_to_350_has_a_cutoff(self):
        assert min_dimension_tmc(350.0) > 400  # the cutoff search runs that far
        tmc(350.0, min_dimension_tmc(350.0))

    def test_parameter_past_norm_range_rejected(self):
        # I0(2 lambda) nears the float range past lambda = 350
        for build in (lambda: tmc(351.0, 10), lambda: min_dimension_tmc(351.0)):
            with pytest.raises(ValidationError, match="350"):
                build()


class TestPnes:
    def test_single_coefficient(self):
        s = pnes([1.0], 3)
        assert abs(s.amplitudes[0]) == pytest.approx(1.0)

    def test_two_term_superposition(self):
        s = pnes([1.0, 1.0], 4)
        idx11 = 1 * 4 + 1
        assert abs(s.amplitudes[0]) == pytest.approx(1 / math.sqrt(2))
        assert abs(s.amplitudes[idx11]) == pytest.approx(1 / math.sqrt(2))

    def test_geometric_coefficients_reproduce_twb(self):
        x, d = 0.45, 25
        s = pnes(x ** np.arange(d), d)
        np.testing.assert_allclose(s.amplitudes, twb(x, d).amplitudes, atol=1e-12)

    def test_rejects_all_zero(self):
        with pytest.raises(ValidationError):
            pnes([0.0, 0.0], 4)

    @pytest.mark.parametrize("c, d, match", [
        ([1.0, math.nan], 4, "must be finite"),
        ([math.inf, 1.0], 4, "must be finite"),
        ([1.0, 0.5, 0.25], 2, "dimension 2 smaller than coefficient count 3"),
    ], ids=["nan", "inf", "short-box"])
    def test_rejects_bad_coefficients_or_box(self, c, d, match):
        with pytest.raises(ValidationError, match=match):
            pnes(c, d)

    @pytest.mark.parametrize("c, d", [([1.0], 4), ([1.0, 2.0j, 0.5], 6),
                                      (0.6 ** np.arange(29), 29)], ids=["vacuum", "short", "twb"])
    def test_is_the_gathered_diagonal_grid(self, c, d):
        grid = np.zeros((1, d, d), dtype=np.complex128)
        grid[0, np.arange(len(c)), np.arange(len(c))] = c
        grid /= np.linalg.norm(grid)
        want, want_layout = kernels.gather(grid)
        s = pnes(c, d)
        assert s.layout is want_layout
        np.testing.assert_allclose(s.psi, want, rtol=0, atol=2e-16)

    def test_diagonal_support(self):
        s = pnes([1.0, 2.0, 0.5], 6)
        g = s.grid()[0]
        off_diag = g - np.diag(np.diag(g))
        assert np.all(off_diag == 0)
        assert measure(s).diff_n == 0.0


class TestProductState:
    def test_vacuum_product(self):
        s = product_state(coherent(0.0, 2), pnes([1.0], 2))
        assert abs(s.amplitudes[0]) == pytest.approx(1.0)

    def test_number_difference_zero(self):
        s = product_state(coherent(1.2, 15), twb(0.4, 20))
        assert abs(measure(s).diff_n) < 1e-14

    def test_unit_norm(self):
        s = product_state(coherent(2.0, 30), tmc(1.0, 20))
        assert measure(s).norm == pytest.approx(1.0)

    def test_rejects_nontrivial_pump_in_pair(self):
        s = product_state(coherent(1.0, 10), twb(0.3, 15))
        with pytest.raises(ValidationError):
            product_state(coherent(1.0, 10), s)

    @pytest.mark.parametrize("pump", [np.zeros(3), [1.0, math.nan], [math.inf, 0.0], []],
                             ids=["zero", "nan", "inf", "empty"])
    def test_rejects_zero_or_non_finite_pump(self, pump):
        with pytest.raises(ValidationError, match="pump amplitudes"):
            product_state(pump, pnes([1.0], 2))


class TestProductSectors:
    @pytest.mark.parametrize("pair", [twb(0.3, 15), tmc(0.7, 12), pnes([1.0], 4)],
                             ids=["twb", "tmc", "vacuum"])
    def test_is_the_gathered_kronecker_product(self, pair):
        pump = coherent(1.5, 20)
        s = product_state(pump, pair)
        grid = np.kron(pump.amplitudes, pair.amplitudes).reshape(20, *pair.config.shape[1:])
        grid /= np.linalg.norm(grid)
        want, want_layout = kernels.gather(grid)
        assert s.layout is want_layout
        np.testing.assert_allclose(s.psi, want, rtol=0, atol=1e-15)
        np.testing.assert_allclose(s.grid(), grid, rtol=0, atol=1e-15)


class TestFactoryInvariants:
    @pytest.mark.parametrize(
        "state",
        [twb(0.3, 20), tmc(0.7, 20), pnes([0.5, 1.0, 0.25], 8)],
        ids=["twb", "tmc", "pnes"],
    )
    def test_mode_amplitudes_vanish(self, state):
        ops = dense_ops(state.config.shape)
        amps = state.amplitudes
        assert abs(np.vdot(amps, ops["a1"] @ amps)) < 1e-14
        assert abs(np.vdot(amps, ops["a2"] @ amps)) < 1e-14


class TestMinDimensions:
    def test_twb_tail_below_tolerance(self):
        for x in (0.2, 0.5, 0.8):
            d = min_dimension_twb(x)
            assert x ** (2 * d) < 1e-12
            twb(x, d)  # constructible

    def test_tmc_constructible(self):
        for lam in (0.5, 1.0, 2.0):
            tmc(lam, min_dimension_tmc(lam))

    @pytest.mark.parametrize("family, build, smallest, params", [
        ("twb", twb, min_dimension_twb, (0.2, 0.5, 0.8)),
        ("tmc", tmc, min_dimension_tmc, (0.5, 1.0, 2.0)),
    ], ids=["twb", "tmc"])
    def test_constructor_refuses_exactly_below_the_smallest_cutoff(self, family, build,
                                                                   smallest, params):
        for param in params:
            m = smallest(param)
            build(param, m)
            with pytest.raises(DimensionTooSmallError, match=f"needs d >= {m}"):
                build(param, m - 1)

    def test_twb_cutoff_is_the_smallest(self):
        assert min_dimension_twb(0.5) == 20
        assert 0.5 ** 40 < 1e-12 <= 0.5 ** 38


class TestInitialState:
    def test_is_the_product_of_pump_and_pair(self):
        s = initial_state("twb", 0.3, 1.5, 0, 12)
        want = product_state(coherent(1.5, pump_dimension(1.5)), twb(0.3, 12))
        assert s.layout is want.layout
        np.testing.assert_array_equal(s.psi, want.psi)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValidationError, match="'squeezed'"):
            initial_state("squeezed", 0.3, 1.5, 0, 12)
