import math

import numpy as np
import pytest

from specreg.errors import BasisMismatchError, DomainError
from specreg.index_functions import PowerIndex
from specreg.spectral import (
    DeterministicNoise,
    SpectralElement,
    SpectralOperator,
    WhiteNoise,
    add_noise,
    besov_seq_norm,
    noise_generator,
    spectral_distribution,
    xtk_norm,
)


def small_op():
    return SpectralOperator(
        np.array([1.0, 0.25, 1.0 / 9.0]), np.array([1, 2, 2])
    )


def merged_levels(eig, mult):
    """Loop reference for from_levels: stable descending sort, then equal
    neighbours pooled."""
    out_e, out_m = [], []
    for e, m in sorted(zip(eig, mult), key=lambda pair: -pair[0]):
        if out_e and e == out_e[-1]:
            out_m[-1] += m
        else:
            out_e.append(e)
            out_m.append(m)
    return out_e, out_m


class TestOperator:
    def test_validation(self):
        with pytest.raises(ValueError):
            SpectralOperator(np.array([1.0, 1.0]), np.array([1, 1]))  # tie
        with pytest.raises(ValueError):
            SpectralOperator(np.array([0.5, 1.0]), np.array([1, 1]))  # order
        with pytest.raises(ValueError):
            SpectralOperator(np.array([1.0, -0.1]), np.array([1, 1]))

    def test_from_levels_merges_ties(self):
        op = SpectralOperator.from_levels(
            np.array([1.0, 1.0, 0.25]), np.array([1, 2, 2])
        )
        np.testing.assert_allclose(op.eigenvalues, [1.0, 0.25])
        np.testing.assert_array_equal(op.multiplicities, [3, 2])
        # unsorted, with ties scattered and a tie at the last level
        op = SpectralOperator.from_levels(
            np.array([0.25, 1.0, 0.5, 0.25, 1.0]), np.array([1, 2, 4, 3, 5])
        )
        np.testing.assert_array_equal(op.eigenvalues, [1.0, 0.5, 0.25])
        np.testing.assert_array_equal(op.multiplicities, [7, 4, 4])
        op = SpectralOperator.from_levels(np.array([0.5, 1.0, 0.5]))
        np.testing.assert_array_equal(op.multiplicities, [1, 2])
        with pytest.raises(ValueError, match="nonempty"):
            SpectralOperator.from_levels(np.array([]))
        # every comparison with NaN is false, so order checks alone pass it
        for bad in ([1.0, np.nan], [np.inf, 1.0], [np.nan]):
            with pytest.raises(ValueError, match="finite"):
                SpectralOperator.from_levels(np.array(bad))

    def test_from_levels_matches_merge_loop(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 7, 300):
            eig = rng.choice([1.0, 0.5, 0.25, 1e-3, 1e-300], size=n)
            mult = rng.integers(1, 4, size=n)
            want_e, want_m = merged_levels(eig, mult)
            op = SpectralOperator.from_levels(eig, mult)
            np.testing.assert_array_equal(op.eigenvalues, want_e)
            np.testing.assert_array_equal(op.multiplicities, want_m)

    def test_slots(self):
        op = small_op()
        assert op.n_slots == 5
        np.testing.assert_allclose(
            op.slot_eigenvalues, [1.0, 0.25, 0.25, 1 / 9, 1 / 9]
        )
        np.testing.assert_array_equal(op.slot_offsets, [0, 1, 3])
        assert op.norm_t == 1.0

    def test_round_trip_dict(self):
        op = small_op()
        back = SpectralOperator.from_dict(op.to_dict())
        np.testing.assert_allclose(back.eigenvalues, op.eigenvalues)


class TestDistribution:
    def test_single_coefficient(self):
        op = small_op()
        x = SpectralElement(op, np.array([2.0, 0.0, 0.0, 0.0, 0.0]))
        # coefficient sits at lambda = 1
        assert spectral_distribution(x, 1.0) == pytest.approx(2.0)
        assert spectral_distribution(x, 0.5) == 0.0

    def test_right_continuity_includes_equal_eigenvalue(self):
        op = small_op()
        x = SpectralElement(op, np.array([0.0, 3.0, 4.0, 0.0, 0.0]))
        assert spectral_distribution(x, 0.25) == pytest.approx(5.0)
        assert spectral_distribution(x, 0.2499) == 0.0

    def test_monotone_in_lam(self):
        op = small_op()
        rng = np.random.default_rng(0)
        x = SpectralElement(op, rng.standard_normal(5))
        lams = np.linspace(0.0, 2.0, 50)
        vals = spectral_distribution(x, lams)
        assert np.all(np.diff(vals) >= -1e-15)
        assert vals[-1] == pytest.approx(x.norm())


class TestXtkNorm:
    def test_attained_on_eigenvalues(self):
        op = small_op()
        x = SpectralElement(op, np.array([1.0, 1.0, 0.0, 0.5, 0.5]))
        kappa = PowerIndex(0.5)
        # direct max over candidate eigenvalues
        eig = op.eigenvalues
        expected = max(
            spectral_distribution(x, lam) / math.sqrt(lam) for lam in eig
        )
        assert xtk_norm(x, kappa) == pytest.approx(expected, rel=1e-14)

    def test_scaling_linearity(self):
        op = small_op()
        x = SpectralElement(op, np.arange(1.0, 6.0))
        kappa = PowerIndex(0.3)
        assert xtk_norm(2.0 * x, kappa) == pytest.approx(
            2 * xtk_norm(x, kappa), rel=1e-14
        )


class TestBesov:
    def test_single_mode(self):
        assert besov_seq_norm([0], [1.0], u=1.0) == 1.0

    def test_borderline_vs_supcritical_growth(self):
        # c_n = (1 v |n|)^(-u - 1/2) keeps the norm bounded in M;
        # c_n = (1 v |n|)^(-u) makes it grow like sqrt(M).  Documented here
        # because the bounded variant is what the fixtures ship.
        u = 1.0
        norms_border, norms_rough = [], []
        for M in [100, 1000, 10000]:
            n = np.arange(-M, M + 1)
            border = (np.maximum(1, np.abs(n)) ** (-u - 0.5)).astype(float)
            rough = (np.maximum(1, np.abs(n)) ** (-u)).astype(float)
            norms_border.append(besov_seq_norm(n, border, u))
            norms_rough.append(besov_seq_norm(n, rough, u))
        assert norms_border[-1] / norms_border[0] < 1.2
        growth = norms_rough[-1] / norms_rough[0]
        assert growth == pytest.approx(math.sqrt(10000 / 100), rel=0.15)

    def test_tail_definition(self):
        # two coefficients at n = +-3, cutoff m = 2 weight (2)^(2u)
        n = np.array([-3, 0, 3])
        c = np.array([1.0, 0.0, 1.0])
        u = 0.5
        # tails: m=0,1,2,3 all contain the +-3 mass = 2
        expected = math.sqrt(max((max(1, m) ** (2 * u)) * 2.0 for m in range(4)))
        assert besov_seq_norm(n, c, u) == pytest.approx(expected)


class TestNoise:
    def test_deterministic_checks_norm(self):
        op = small_op()
        g = SpectralElement(op, np.zeros(5))
        noise = DeterministicNoise(0.1)
        xi = np.full(5, 0.1)
        with pytest.raises(DomainError):
            add_noise(g, noise, xi=xi)
        ok = add_noise(g, noise, xi=np.array([0.1, 0, 0, 0, 0]))
        assert ok.norm() == pytest.approx(0.1)

    def test_zero_delta_zero_xi_unchanged(self):
        op = small_op()
        g = SpectralElement(op, np.arange(5.0))
        out = add_noise(g, DeterministicNoise(0.0), xi=np.zeros(5))
        np.testing.assert_allclose(out.coefficients, g.coefficients)

    def test_deterministic_draw_without_xi(self):
        # a seeded direction on the delta sphere, one per replicate
        g = SpectralElement(small_op(), np.arange(5.0))
        noise = DeterministicNoise(0.3)
        a = add_noise(g, noise, replicate=3)
        b = add_noise(g, noise, replicate=3)
        c = add_noise(g, noise, replicate=4)
        xi = a.coefficients - g.coefficients
        assert np.linalg.norm(xi) == pytest.approx(0.3, rel=1e-14)
        np.testing.assert_array_equal(a.coefficients, b.coefficients)
        assert not np.array_equal(a.coefficients, c.coefficients)
        flat = add_noise(g, DeterministicNoise(0.0), replicate=3)
        np.testing.assert_array_equal(flat.coefficients, g.coefficients)

    def test_white_noise_reproducible(self):
        op = small_op()
        g = SpectralElement(op, np.zeros(5))
        noise = WhiteNoise(epsilon=1.0, seed=42)
        a = add_noise(g, noise, replicate=3)
        b = add_noise(g, noise, replicate=3)
        c = add_noise(g, noise, replicate=4)
        np.testing.assert_array_equal(a.coefficients, b.coefficients)
        assert not np.array_equal(a.coefficients, c.coefficients)

    def test_white_noise_moments(self):
        # empirical mean and variance over many draws within 3 standard errors
        noise = WhiteNoise(epsilon=1.0, seed=7)
        n = 10000
        draws = np.stack(
            [noise_generator(noise, i).standard_normal(4) for i in range(n)]
        )
        mean = draws.mean(axis=0)
        var = draws.var(axis=0)
        assert np.all(np.abs(mean) < 3 / math.sqrt(n))
        assert np.all(np.abs(var - 1) < 3 * math.sqrt(2.0 / n))

    def test_basis_mismatch(self):
        a = SpectralElement(small_op(), np.zeros(5))
        other = SpectralOperator(np.array([2.0, 1.0]), np.array([1, 1]))
        b = SpectralElement(other, np.zeros(2))
        with pytest.raises(BasisMismatchError):
            _ = a + b
