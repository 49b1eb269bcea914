"""Tests for the benchmark problem factories."""

import math

import numpy as np
import pytest

from specreg.errors import DomainError
from specreg.index_functions import (
    ComposedIndex,
    check_structure,
    mu_holds_on_grid,
)
from specreg.problems import (
    ProblemDescriptor,
    backward_heat,
    backward_heat_decay_index,
    fixture_registry,
    gradiometry,
    gradiometry_lambda,
    kappa_from_lambda,
    sideways_heat,
    sideways_heat_lambda,
    single_layer_circle,
    sobolev_scale,
)
from specreg.spectral import besov_seq_norm, xtk_norm
from specreg.vsc import decay_to_vsc


def circle_frequencies(N):
    if N == 1:
        return np.array([0, 1, 1])
    return np.concatenate([[0, 1, 1], np.repeat(np.arange(2, N + 1), 2)])


class TestSingleLayerCircle:
    def test_small_truncation_layout(self):
        fx = single_layer_circle(3, 1.0)
        assert np.allclose(fx.op.eigenvalues, [1.0, 0.25, 1.0 / 9.0], rtol=1e-15)
        assert fx.op.multiplicities.tolist() == [3, 2, 2]
        # merged zero and first modes all carry coefficient 1
        assert np.allclose(fx.x.coefficients[:3], 1.0)
        assert fx.x.coefficients[3] == pytest.approx(2.0**-1.5, rel=1e-15)
        np.testing.assert_array_equal(fx.frequencies, circle_frequencies(3))
        np.testing.assert_array_equal(
            single_layer_circle(1, 1.0).frequencies, circle_frequencies(1)
        )

    def test_decay_norm_finite(self):
        for u in [0.5, 1.0, 2.0]:
            fx = single_layer_circle(500, u)
            assert math.isfinite(xtk_norm(fx.x, fx.kappa))

    def test_kappa_exponent(self):
        kappa = single_layer_circle(8, 1.0).kappa
        # smoothness u over a = 1 gives exponent u/2
        assert float(kappa(0.04)) == pytest.approx(0.2, rel=1e-12)

    def test_norm_equivalence_stable_across_truncations(self):
        for u in [0.5, 1.0]:
            ratios = []
            for N in [100, 1000, 10000]:
                fx = single_layer_circle(N, u)
                np.testing.assert_array_equal(fx.frequencies, circle_frequencies(N))
                seq = besov_seq_norm(circle_frequencies(N), fx.x.coefficients, u)
                ratios.append(xtk_norm(fx.x, fx.kappa) / seq)
            assert max(ratios) / min(ratios) <= 1.05


class TestSobolevScale:
    def test_matches_closed_forms(self):
        fx = sobolev_scale(50, 2.0, 1.0)
        assert fx.op.eigenvalues[4] == pytest.approx(5.0**-4.0, rel=1e-15)
        assert float(fx.kappa(1e-4)) == pytest.approx(1e-1, rel=1e-12)
        assert math.isfinite(xtk_norm(fx.x, fx.kappa))
        np.testing.assert_array_equal(fx.frequencies, np.arange(1, 51))


class TestBackwardHeat:
    def test_eigenvalue_formula(self):
        op = backward_heat(1.0, 5, 1.0).op
        assert op.eigenvalues[1] == pytest.approx(math.exp(-2.0), rel=1e-15)
        assert op.multiplicities.tolist() == [1, 2, 2, 2, 2, 2]

    def test_kappa_normalization_point(self):
        kappa = backward_heat(1.0, 5, 1.0).kappa
        assert float(kappa(math.exp(-2.0))) == pytest.approx(1.0, rel=1e-12)

    def test_underflow_cap_recorded(self):
        fx = backward_heat(1.0, 30, 1.0)
        assert len(fx.op.eigenvalues) == 18  # n <= 17 at t_bar = 1
        assert "dropped" in fx.op.truncation_note
        assert fx.op.n_slots == len(fx.x.coefficients)

    def test_no_note_when_nothing_dropped(self):
        op = backward_heat(1.0, 10, 1.0).op
        assert op.truncation_note == ""

    def test_norm_equivalence_for_smoothness_class(self):
        fx = backward_heat(1.0, 30, 1.0)
        n_levels = len(fx.op.eigenvalues)
        freqs = np.concatenate([[0], np.repeat(np.arange(1, n_levels), 2)])
        np.testing.assert_array_equal(fx.frequencies, freqs)
        seq = besov_seq_norm(freqs, fx.x.coefficients, 2.0)
        ratio = xtk_norm(fx.x, ComposedIndex(fx.kappa, power=2.0)) / seq
        assert 0.5 <= ratio <= 2.0

    def test_decay_index_passes_structure_checks(self):
        kappa = backward_heat_decay_index(1.0)
        grid = np.geomspace(1e-30, 1.0, 200)
        assert check_structure(kappa, grid).passed
        assert mu_holds_on_grid(kappa, 1.0 / 3.0, grid)

    def test_vsc_psi_has_log_shape(self):
        # psi from the converted decay certificate behaves like
        # C * log(3 + 1/t)^(-2 beta): constant band at the right
        # exponent, drifting band one power off
        fx = backward_heat(1.0, 30, 1.0)
        profile = decay_to_vsc(fx.x, fx.op, backward_heat_decay_index(1.0), 1.0 / 3.0)
        t = np.geomspace(1e-30, 1e-2, 40)
        logs = np.log(3.0 + 1.0 / t)
        right = profile.psi(t) * logs**2
        assert right.max() / right.min() <= 4.0
        wrong = profile.psi(t) * logs**3
        assert wrong.max() / wrong.min() >= 10.0


class TestSidewaysHeat:
    def test_transfer_function_at_zero(self):
        assert sideways_heat_lambda(0.0) == 1.0

    def test_matches_complex_evaluation(self):
        for mu in [1.0, 10.0, 100.0]:
            z = mu**0.25 * (1 + 1j) / math.sqrt(2.0)
            direct = float(abs(np.cosh(z)) ** -2.0)
            assert sideways_heat_lambda(mu) == pytest.approx(direct, rel=1e-12)

    def test_large_argument_asymptote(self):
        # sinh^2 dominates: the symbol approaches 4 exp(-sqrt(2) mu^(1/4))
        for mu, tol in [(1e4, 1e-4), (1e8, 1e-6)]:
            ratio = sideways_heat_lambda(mu) / (
                4.0 * math.exp(-math.sqrt(2.0) * mu**0.25)
            )
            assert ratio == pytest.approx(1.0, abs=tol)

    def test_fixture_monotone_and_finite_norm(self):
        fx = sideways_heat(64, 1.0)
        assert np.all(np.diff(fx.op.eigenvalues) < 0)
        assert fx.op.eigenvalues[0] == 1.0
        assert math.isfinite(xtk_norm(fx.x, ComposedIndex(fx.kappa, power=2.0)))
        # mu_n = n^2 for n = 0..N, one slot each
        np.testing.assert_array_equal(fx.frequencies, np.arange(0, 65))

    def test_kappa_log_asymptote_trend(self):
        # kappa(alpha) * ln(1/alpha) / 2 climbs monotonically toward 1
        ratios = []
        for alpha in [1e-10, 1e-20, 1e-40, 1e-80]:
            kap = kappa_from_lambda(sideways_heat_lambda, 1.0, alpha)
            ratios.append(kap * math.log(1.0 / alpha) ** 2 / 2.0)
        assert all(np.diff(ratios) > 0)
        assert 0.5 < ratios[0] < ratios[-1] < 1.0


class TestGradiometry:
    def test_accepts_wide_orbit(self):
        fx = gradiometry(4.0, 24, 1.0)
        assert len(fx.op.eigenvalues) == 25
        assert fx.op.multiplicities[2] == 5
        assert math.isfinite(xtk_norm(fx.x, ComposedIndex(fx.kappa, power=2.0)))
        ell = np.arange(0, 25)
        np.testing.assert_array_equal(fx.frequencies, np.repeat(ell, 2 * ell + 1))

    def test_frequencies_follow_levels_when_zero_mode_sorts_below(self):
        # at R = 2.5 lambda(l=1) exceeds lambda(l=0), so the operator lists
        # the l = 1 level first and the slot labels follow it
        fx = gradiometry(2.5, 24, 1.0)
        assert fx.op.multiplicities[:2].tolist() == [3, 1]
        np.testing.assert_array_equal(fx.frequencies[:5], [1, 1, 1, 0, 2])

    def test_rejects_narrow_orbit_with_witness(self):
        with pytest.raises(DomainError) as err:
            gradiometry(1.5, 24, 1.0)
        msg = str(err.value)
        assert "lambda(2)" in msg and "lambda(6)" in msg

    def test_kappa_log_asymptote_trend(self):
        R = 4.0
        ratios = []
        for alpha in [1e-10, 1e-30, 1e-60, 1e-120]:
            kap = kappa_from_lambda(lambda m: gradiometry_lambda(m, R), 2.0, alpha)
            ratios.append(kap * math.log(1.0 / alpha) / (2.0 * math.log(R)))
        assert all(np.diff(ratios) > 0)
        assert 0.5 < ratios[0] < ratios[-1] < 1.0


class TestKappaFromLambda:
    def test_heat_symbol_inversion(self):
        lam = lambda m: math.exp(-2.0 * m)
        assert kappa_from_lambda(lam, 0.5, math.exp(-2.0)) == pytest.approx(
            1.0, rel=1e-12
        )

    def test_plateau_and_zero(self):
        lam = lambda m: math.exp(-2.0 * m)
        assert kappa_from_lambda(lam, 4.0, 0.9) == pytest.approx(0.5, rel=1e-15)
        assert kappa_from_lambda(lam, 4.0, 0.0) == 0.0

    def test_round_trip(self):
        lam = lambda m: math.exp(-2.0 * m)
        for alpha in np.geomspace(1e-60, math.exp(-1.0) * 0.999, 20):
            kap = kappa_from_lambda(lam, 0.5, float(alpha))
            assert lam(kap**-2.0) == pytest.approx(float(alpha), rel=1e-9)

    @pytest.mark.parametrize(
        "symbol,t0",
        [(sideways_heat_lambda, 1.0), (lambda m: gradiometry_lambda(m, 4.0), 2.0)],
    )
    def test_array_call_matches_scalar_calls(self, symbol, t0):
        alphas = np.concatenate(
            [[0.0], np.geomspace(1e-120, symbol(t0), 300), [1.0]]
        )
        got = kappa_from_lambda(symbol, t0, alphas)
        want = np.array([kappa_from_lambda(symbol, t0, float(a)) for a in alphas])
        # brackets differ and numpy's array and scalar power kernels round
        # apart, so values agree to the bisection's 4 eps stopping width
        np.testing.assert_allclose(got, want, rtol=4 * np.finfo(float).eps, atol=0)
        assert got[0] == 0.0 and got[-1] == t0**-0.5

    def test_rejects_rising_symbol(self):
        with pytest.raises(DomainError):
            kappa_from_lambda(lambda m: gradiometry_lambda(m, 1.5), 2.0, 1e-12)


class TestDescriptors:
    def test_registry_builds_valid_fixtures(self):
        for name, desc in fixture_registry().items():
            fx = desc.build()
            assert np.all(np.diff(fx.op.eigenvalues) < 0), name
            assert fx.op.eigenvalues[-1] > 0, name
            assert len(fx.x.coefficients) == fx.op.n_slots, name
            assert len(fx.frequencies) == fx.op.n_slots, name

    def test_round_trip(self):
        desc = fixture_registry()["circle-u1"]
        again = ProblemDescriptor.from_dict(desc.to_dict())
        assert again == desc

    def test_rejects_unknown_kind_and_tiny_size(self):
        with pytest.raises(DomainError):
            ProblemDescriptor("spherical_cow", {"N": 100})
        with pytest.raises(DomainError):
            ProblemDescriptor("single_layer_circle", {"N": 4, "u": 1.0})
