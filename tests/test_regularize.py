import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specreg.errors import DomainError
from specreg.experiments import default_alpha_grid
from specreg import filters
from specreg.filters import catalogue, landweber, showalter, tikhonov
from specreg.problems import backward_heat, single_layer_circle
from specreg.regularize import (
    ErrorBreakdown,
    bias,
    error_breakdown,
    mse_monte_carlo,
    propagation_norm,
    variance_trace,
    worst_case_error,
)
from specreg.spectral import (
    DeterministicNoise,
    SpectralElement,
    SpectralOperator,
    WhiteNoise,
    add_noise,
)

from oracles import (
    brute_force_worst_case,
    monte_carlo_one_row,
    reconstruction,
    worst_case_bounds,
)


def make_element(eigenvalues, multiplicities, coefficients):
    op = SpectralOperator(
        np.asarray(eigenvalues, dtype=float),
        np.asarray(multiplicities, dtype=np.int64),
    )
    return SpectralElement(op, np.asarray(coefficients, dtype=float))


def single_mode(lam=1.0, coeff=1.0):
    return make_element([lam], [1], [coeff])


class TestBasics:
    def test_single_mode_closed_form(self):
        # Tikhonov at alpha = lam = 1: r = q = 1/2
        x = single_mode()
        m = tikhonov()
        assert bias(m, 1.0, x) == 0.5
        assert propagation_norm(m, 1.0, x.op) == 0.5
        assert variance_trace(m, 1.0, x.op) == 0.25

    def test_trace_counts_multiplicity(self):
        op = SpectralOperator(np.array([1.0, 0.25]), np.array([2, 1]))
        got = variance_trace(tikhonov(), 1.0, op)
        assert got == pytest.approx(2 * 0.25 + 0.8**2 * 0.25, rel=1e-14)


class TestWorstCase:
    def test_single_mode_closed_form(self):
        # worst error over |eta| <= delta is (1 + delta) / 2
        x = single_mode()
        for delta in [0.1, 1.0, 7.5]:
            res = worst_case_error(tikhonov(), 1.0, x, delta)
            assert res.value == pytest.approx((1 + delta) / 2, rel=1e-12)
            assert not res.hard_case

    def test_zero_delta_gives_bias(self):
        x = make_element([1.0, 0.2], [1, 1], [1.0, 3.0])
        res = worst_case_error(tikhonov(), 0.5, x, 0.0)
        assert res.value == bias(tikhonov(), 0.5, x)

    def test_pure_noise_is_hard_case(self):
        x = make_element([1.0, 0.2], [1, 1], [0.0, 0.0])
        res = worst_case_error(tikhonov(), 0.5, x, 2.0)
        assert res.hard_case
        assert res.value == pytest.approx(res.propagation * 2.0, rel=1e-12)

    def test_witness_attains_value(self):
        x = make_element([1.0, 0.4, 0.1], [2, 1, 2], [1.0, -0.5, 2.0, 0.3, 1.5])
        m = tikhonov()
        delta = 0.8
        res = worst_case_error(m, 0.25, x, delta, want_witness=True)
        w = res.witness
        assert w.norm() == pytest.approx(delta, rel=1e-9)
        noisy = x.with_coefficients(
            np.sqrt(x.op.slot_eigenvalues) * x.coefficients
        ) + w
        err = (reconstruction(m, 0.25, noisy) - x).norm()
        assert err == pytest.approx(res.value, rel=1e-10)

    def test_hard_case_witness(self):
        # the level with maximal propagation (lam = 0.3 at alpha = 0.5 for
        # Tikhonov) carries no signal and the budget exceeds the interior mass
        x = make_element([1.0, 0.3], [2, 1], [1.0, 1.0, 0.0])
        m = tikhonov()
        res = worst_case_error(m, 0.5, x, 50.0, want_witness=True)
        assert res.hard_case
        assert res.witness.norm() == pytest.approx(50.0, rel=1e-9)
        direct = np.linalg.norm(
            -m.r(0.5, x.op.slot_eigenvalues) * x.coefficients
            + m.q(0.5, x.op.slot_eigenvalues)
            * np.sqrt(x.op.slot_eigenvalues)
            * res.witness.coefficients
        )
        assert direct == pytest.approx(res.value, rel=1e-10)

    def test_sandwich_bounds(self):
        x = make_element([1.0, 0.5, 0.02], [1, 3, 1], [0.3, 1.0, -1.0, 0.2, 5.0])
        cases = [(m, [0.2], x, [1e-3, 0.3, 20.0]) for m in catalogue()]
        # the default grid reaches alpha ~ 1e-252 here, where theta**2 and
        # sigma**2 leave the double range
        heat = backward_heat(1.0, 30, 1.0)
        heat_alphas = default_alpha_grid(heat.op, showalter())
        cases.append((showalter(), heat_alphas, heat.x, [1e-3]))
        for m, alphas, elem, deltas in cases:
            for alpha in alphas:
                for delta in deltas:
                    lb, ub = worst_case_bounds(m, alpha, elem, delta)
                    val = worst_case_error(m, alpha, elem, delta).value
                    assert math.isfinite(val)
                    assert lb * (1 - 1e-12) <= val <= ub * (1 + 1e-12)

    @given(
        st.integers(0, 5),
        st.floats(1e-4, 0.9),
        st.floats(1e-3, 30.0),
        st.integers(0, 10**6),
    )
    @settings(max_examples=60, deadline=None)
    def test_sandwich_property(self, mi, alpha, delta, seed):
        rng = np.random.default_rng(seed)
        lams = np.sort(rng.uniform(1e-5, 1.0, size=rng.integers(1, 4)))[::-1]
        mult = rng.integers(1, 3, size=lams.size)
        coeff = rng.standard_normal(int(mult.sum()))
        x = make_element(lams, mult, coeff)
        m = catalogue()[mi]
        alpha = min(alpha, m.alpha_max * 0.99)
        lb, ub = worst_case_bounds(m, alpha, x, delta)
        val = worst_case_error(m, alpha, x, delta).value
        assert lb * (1 - 1e-10) <= val <= ub * (1 + 1e-10)


class TestWorstCaseAgainstOracle:
    def _random_fixture(self, rng, force_hard):
        methods = catalogue()
        m = methods[rng.integers(0, len(methods))]
        n_levels = int(rng.integers(1, 4))
        lams = np.sort(10 ** rng.uniform(-6, 0, n_levels))[::-1]
        lams = np.unique(lams)[::-1]
        mult = rng.integers(1, 3, size=lams.size)
        while mult.sum() > 5:
            mult[np.argmax(mult)] -= 1
        coeff = rng.standard_normal(int(mult.sum()))
        alpha_hi = min(m.alpha_max * 0.99, 10.0)
        alpha = 10 ** rng.uniform(-6, math.log10(alpha_hi))
        delta = 10 ** rng.uniform(-4, 1)
        x = make_element(lams, mult, coeff)
        if force_hard:
            d = np.abs(m.q(alpha, lams)) * np.sqrt(lams)
            top_level = int(np.argmax(d))
            c = np.array(coeff)
            lo = x.op.slot_offsets[top_level]
            hi = lo + int(mult[top_level])
            c[lo:hi] = 0.0
            x = x.with_coefficients(c)
            delta = 100.0 * (np.linalg.norm(c) / max(d.max(), 1e-12) + 1.0)
        return m, alpha, x, float(delta)

    def test_200_random_fixtures(self):
        rng = np.random.default_rng(20240817)
        n_hard = 0
        for i in range(200):
            force_hard = i % 7 == 0
            m, alpha, x, delta = self._random_fixture(rng, force_hard)
            res = worst_case_error(m, alpha, x, delta)
            n_hard += res.hard_case
            lam = x.op.slot_eigenvalues
            b = m.r(alpha, lam) * x.coefficients
            d = np.abs(m.q(alpha, lam)) * np.sqrt(lam)
            ref = brute_force_worst_case(b, d, delta, seed=i)
            assert res.value == pytest.approx(ref, rel=1e-6), (
                m.name,
                alpha,
                delta,
                res.hard_case,
            )
        assert n_hard >= 20

    def test_moderate_size_spot_check(self):
        rng = np.random.default_rng(5)
        lams = np.sort(10 ** rng.uniform(-5, 0, 40))[::-1]
        x = make_element(lams, np.ones(40, dtype=int), rng.standard_normal(40))
        m = landweber(mu_step=0.9)
        res = worst_case_error(m, 0.01, x, 0.5)
        lam = x.op.slot_eigenvalues
        b = m.r(0.01, lam) * x.coefficients
        d = np.abs(m.q(0.01, lam)) * np.sqrt(lam)
        ref = brute_force_worst_case(b, d, 0.5, n_random=200000, seed=7)
        assert res.value == pytest.approx(ref, rel=1e-6)


class TestBreakdowns:
    def test_deterministic_breakdown(self):
        x = make_element([1.0, 0.1], [1, 1], [1.0, 2.0])
        m = tikhonov()
        br = error_breakdown(m, 0.2, x, DeterministicNoise(0.3))
        assert isinstance(br, ErrorBreakdown)
        assert br.noise_term == pytest.approx(
            propagation_norm(m, 0.2, x.op) * 0.3, rel=1e-14
        )
        assert max(br.bias, br.noise_term) <= br.total <= br.bias + br.noise_term

    @pytest.mark.parametrize("idx", range(6), ids=lambda i: catalogue()[i].name)
    def test_deterministic_bias_is_the_bias_table(self, idx):
        # the breakdown reads bias from the worst case, which forms it as
        # bias() does, bit for bit
        for fixture in (single_layer_circle(500, 1.0), backward_heat(1.0, 30, 1.0)):
            x = fixture.x
            m = catalogue(x.op.norm_tstar_t)[idx]
            for a in np.geomspace(1e-9, min(m.alpha_max, 1.0) * 0.999, 13):
                for delta in (0.0, 1e-4, 0.3):
                    br = error_breakdown(m, float(a), x, DeterministicNoise(delta))
                    assert br.bias == bias(m, float(a), x)

    def test_white_breakdown(self):
        x = make_element([1.0, 0.1], [1, 2], [1.0, 2.0, -1.0])
        m = tikhonov()
        br = error_breakdown(m, 0.2, x, WhiteNoise(epsilon=0.05, seed=1))
        v = variance_trace(m, 0.2, x.op)
        assert br.noise_term == pytest.approx(0.05 * math.sqrt(v), rel=1e-14)
        assert br.total == pytest.approx(math.hypot(br.bias, br.noise_term))

    def test_monte_carlo_matches_exact(self):
        x = make_element([1.0, 0.5, 0.2], [1, 2, 2], [1.0, 0.5, -1.0, 2.0, 0.3])
        m = tikhonov()
        noise = WhiteNoise(epsilon=0.2, seed=99)
        est = mse_monte_carlo(m, 0.3, x, noise, n_replicates=4000)
        exact = error_breakdown(m, 0.3, x, noise).total ** 2
        assert abs(est.mean_squared - exact) <= 4 * est.se_mean_squared
        assert est.rmse == pytest.approx(math.sqrt(est.mean_squared))

    def test_monte_carlo_reproducible(self):
        x = make_element([1.0], [2], [1.0, -1.0])
        noise = WhiteNoise(epsilon=0.1, seed=3)
        a = mse_monte_carlo(tikhonov(), 0.5, x, noise, n_replicates=50)
        b = mse_monte_carlo(tikhonov(), 0.5, x, noise, n_replicates=50)
        assert a == b

    def test_monte_carlo_uses_per_replicate_streams(self):
        # replicate i depends only on (seed, i): the first 10 replicates
        # of a 20-replicate run score exactly as a 10-replicate run does
        x = make_element([1.0, 0.5], [1, 2], [1.0, 0.4, -0.3])
        m = tikhonov()
        noise = WhiteNoise(epsilon=0.5, seed=11)
        err_sq, mean, se = monte_carlo_one_row(m, 0.5, x, noise, 20)
        short = mse_monte_carlo(m, 0.5, x, noise, n_replicates=10)
        long = mse_monte_carlo(m, 0.5, x, noise, n_replicates=20)
        assert short.mean_squared == float(np.mean(err_sq[:10]))
        assert short.se_mean_squared == float(
            np.std(err_sq[:10], ddof=1) / math.sqrt(10)
        )
        assert (long.mean_squared, long.se_mean_squared) == (mean, se)
        assert short.n_replicates == 10 and long.n_replicates == 20

    def test_monte_carlo_rows_share_draws_bit_for_bit(self):
        # one call over three rows, one noise-free, gives exactly what
        # three one-row runs give
        x = single_layer_circle(2_000, 1.0).x
        m = tikhonov()
        alphas = np.array([1e-2, 1e-3, 1e-4])
        noises = [WhiteNoise(eps, seed=5) for eps in (1e-2, 0.0, 1e-4)]
        est = mse_monte_carlo(m, alphas, x, noises, n_replicates=40)
        assert est.n_replicates == 40
        assert est.mean_squared.shape == (3,)
        for k, (a, noise) in enumerate(zip(alphas, noises)):
            _, mean, se = monte_carlo_one_row(m, float(a), x, noise, 40)
            assert est.mean_squared[k] == mean
            assert est.se_mean_squared[k] == se
            assert est.rmse[k] == math.sqrt(mean)
            one = mse_monte_carlo(m, float(a), x, noise, n_replicates=40)
            assert (one.mean_squared, one.se_mean_squared) == (mean, se)
        assert est.se_mean_squared[1] == 0.0

    @pytest.mark.parametrize(
        "alpha,noise",
        [
            ([0.1, 0.2], [WhiteNoise(0.1, seed=1), WhiteNoise(0.1, seed=2)]),
            ([0.1, 0.2], [WhiteNoise(0.1, seed=1)]),
            ([0.1], WhiteNoise(0.1, seed=1)),
            (0.1, [WhiteNoise(0.1, seed=1)]),
            ([[0.1]], [WhiteNoise(0.1, seed=1)]),
        ],
        ids=["mixed_seeds", "too_few_noises", "bare_noise", "listed_noise", "2d"],
    )
    def test_monte_carlo_refuses_mismatched_rows(self, alpha, noise):
        x = make_element([1.0], [2], [1.0, -1.0])
        with pytest.raises(ValueError):
            mse_monte_carlo(tikhonov(), alpha, x, noise, n_replicates=10)

    def test_add_noise_roundtrip_with_breakdown(self):
        # one concrete deterministic perturbation never beats the sup
        x = make_element([1.0, 0.3], [1, 1], [2.0, -1.0])
        m = tikhonov()
        delta = 0.4
        rng = np.random.default_rng(0)
        worst = worst_case_error(m, 0.15, x, delta).value
        lam = x.op.slot_eigenvalues
        clean = x.with_coefficients(np.sqrt(lam) * x.coefficients)
        for _ in range(25):
            u = rng.standard_normal(2)
            xi = x.with_coefficients(delta * u / np.linalg.norm(u))
            noisy = add_noise(clean, DeterministicNoise(delta), xi=xi)
            err = (reconstruction(m, 0.15, noisy) - x).norm()
            assert err <= worst * (1 + 1e-10)


EPS = np.finfo(float).eps


class TestAlphaTables:
    """One call over an alpha grid equals the scalar calls, and both equal
    the per-slot formulas the tables replaced."""

    @pytest.fixture(scope="class")
    def circle(self):
        fixture = single_layer_circle(2_000, 1.0)
        return fixture.op, fixture.x

    @pytest.mark.parametrize("idx", range(6), ids=lambda i: catalogue()[i].name)
    def test_grid_call_matches_scalar_calls(self, circle, idx):
        op, x = circle
        m = catalogue(op.norm_tstar_t)[idx]
        alphas = np.geomspace(1e-7, min(m.alpha_max, 1.0) * 0.999, 15)
        # 2000 levels give 4 rows per block, so 15 alphas cross three block
        # boundaries
        assert 1 < filters._TABLE_BYTES // (8 * op.eigenvalues.size) < alphas.size
        lam_slot = op.slot_eigenvalues
        grids = {
            "bias": bias(m, alphas, x),
            "propagation": propagation_norm(m, alphas, op),
            "trace": variance_trace(m, alphas, op),
        }
        for i, a in enumerate(alphas):
            a = float(a)
            scalar = {
                "bias": bias(m, a, x),
                "propagation": propagation_norm(m, a, op),
                "trace": variance_trace(m, a, op),
            }
            d_slot = m.q(a, lam_slot) * np.sqrt(lam_slot)
            per_slot = {
                "bias": np.linalg.norm(m.r(a, lam_slot) * x.coefficients),
                "propagation": np.max(np.abs(d_slot)),
                "trace": np.sum(d_slot**2),
            }
            for key, grid in grids.items():
                assert isinstance(scalar[key], float)
                assert grid[i] == pytest.approx(scalar[key], rel=4 * EPS, abs=0.0)
                assert grid[i] == pytest.approx(per_slot[key], rel=1e-12, abs=0.0)

    def test_empty_grid_gives_empty_tables(self, circle):
        op, x = circle
        assert bias(tikhonov(), np.array([]), x).shape == (0,)
        assert variance_trace(tikhonov(), np.array([]), op).shape == (0,)

    def test_rejects_a_two_dimensional_grid(self, circle):
        op, _ = circle
        with pytest.raises(ValueError):
            propagation_norm(tikhonov(), np.ones((2, 2)), op)

    @pytest.mark.parametrize("n_levels", [1, 2, 17, 39, 3000, 50_000])
    def test_propagation_rows_match_per_alpha_maxima(self, n_levels):
        # bit for bit, from one row per block (50,000 levels) to the whole
        # grid in one block (a single level)
        lam = np.geomspace(1.0, 1e-9, n_levels)
        op = SpectralOperator(lam, np.ones(n_levels, dtype=np.int64))
        for m in catalogue():
            alphas = np.geomspace(1e-10, min(m.alpha_max, 1.0) * 0.999, 23)
            want = [np.max(np.abs(m.q(a, lam) * np.sqrt(lam))) for a in alphas]
            assert np.array_equal(propagation_norm(m, alphas, op), want)
            assert propagation_norm(m, float(alphas[5]), op) == want[5]

    def test_propagation_checks_its_domain_once(self, circle, monkeypatch):
        # an alpha past alpha_max in the last block of a long grid and a
        # negative level raise what a q call raises, from one check
        op, _ = circle
        lam = op.eigenvalues
        m = catalogue(op.norm_tstar_t)[3]  # landweber: finite alpha_max
        rows = filters._TABLE_BYTES // (8 * lam.size)
        alphas = np.geomspace(1e-6, m.alpha_max, 5 * rows + 2)
        alphas[-1] = 2.0 * m.alpha_max
        checks = []
        arguments = filters.FilterMethod._arguments

        def spy(self, alpha, lam):
            checks.append(np.shape(alpha))
            return arguments(self, alpha, lam)

        monkeypatch.setattr(filters.FilterMethod, "_arguments", spy)
        propagation_norm(m, alphas[:-1], op)
        assert checks == [alphas[:-1].shape]
        monkeypatch.undo()
        with pytest.raises(DomainError) as want:
            m.q(float(alphas[-1]), lam)
        with pytest.raises(DomainError) as got:
            propagation_norm(m, alphas, op)
        assert str(got.value) == str(want.value)

        negative = types.SimpleNamespace(eigenvalues=np.array([1.0, 0.5, -1e-3]))
        with pytest.raises(DomainError) as want:
            m.q(0.1, negative.eigenvalues)
        with pytest.raises(DomainError) as got:
            propagation_norm(m, np.geomspace(1e-3, 0.5, 9), negative)
        assert str(got.value) == str(want.value) == "lam must be >= 0"
