import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specreg.errors import DomainError
from specreg.filters import (
    catalogue,
    check_assumption_sr,
    filter_from_dict,
    iterated_tikhonov,
    iteration_count,
    landweber,
    lardy,
    modified_spectral_cutoff,
    qualification_constant,
    showalter,
    tikhonov,
)
from specreg.index_functions import PowerIndex


def default_grids(method, lam_top=1.0, n=100):
    hi = min(method.alpha_max, 10.0)
    alphas = np.geomspace(1e-8, hi, n)
    lams = np.concatenate([[0.0], np.geomspace(1e-10, lam_top, n - 1)])
    return alphas, lams


class TestIterationCount:
    def test_integer_reciprocals(self):
        for n in [1, 2, 3, 7, 100, 10**6]:
            assert iteration_count(1.0 / n) == n

    def test_fractional(self):
        assert iteration_count(0.4) == 2  # 1/0.4 = 2.5
        assert iteration_count(0.9) == 1
        assert iteration_count(2.0) == 0

    def test_third(self):
        assert iteration_count(1.0 / 3.0) == 3


class TestPointValues:
    def test_tikhonov_diagonal_exact(self):
        m = tikhonov()
        for a in [1e-6, 0.37, 2.0]:
            assert m.r(a, a) == 0.5

    def test_showalter_diagonal(self):
        m = showalter()
        assert m.r(0.2, 0.2) == pytest.approx(math.exp(-1), rel=1e-15)

    def test_iterated_tikhonov_diagonal(self):
        for k in [2, 3]:
            m = iterated_tikhonov(k)
            assert m.r(0.1, 0.1) == pytest.approx(2.0**-k, rel=1e-14)

    def test_cutoff_shapes(self):
        m = modified_spectral_cutoff()
        assert m.r(0.5, 0.5) == 0.5
        assert m.r(0.5, 2.0) == 0.0  # lam >= 2 alpha clips to zero
        assert m.q(0.5, 0.0) == 1.0  # 1/(2 alpha)
        assert m.q(0.5, 4.0) == 0.25  # 1/lam branch

    def test_landweber_geometric_sum_at_zero(self):
        # q(0) = mu * k_alpha: with mu = 1 and alpha = 1/3 this is 3
        m = landweber(mu_step=1.0, alpha_max=0.5)
        assert m.q(1.0 / 3.0, 0.0) == pytest.approx(3.0, rel=1e-14)
        # oracle . geometric sum at a positive lam
        lam = 0.2
        expected = 1.0 * sum((1 - 1.0 * lam) ** j for j in range(3))
        assert m.q(1.0 / 3.0, lam) == pytest.approx(expected, rel=1e-12)

    def test_landweber_r_power(self):
        m = landweber(mu_step=0.5)
        lam = 0.8
        assert m.r(0.25, lam) == pytest.approx((1 - 0.5 * lam) ** 4, rel=1e-12)

    def test_landweber_rejects_large_lam(self):
        m = landweber(mu_step=1.0, alpha_max=0.5)
        with pytest.raises(DomainError):
            m.r(0.25, 1.5)

    def test_lardy_r(self):
        m = lardy(beta=2.0)
        lam = 0.7
        assert m.r(0.5, lam) == pytest.approx((2.0 / (2.0 + lam)) ** 2, rel=1e-12)

    def test_alpha_domain_enforced(self):
        m = landweber(mu_step=0.9)
        with pytest.raises(DomainError):
            m.r(1.5, 0.1)
        with pytest.raises(DomainError):
            m.r(0.0, 0.1)

    def test_r_at_zero_is_one(self):
        for m in catalogue():
            assert m.r(min(0.3, m.alpha_max / 2), 0.0) == 1.0


class TestIdentity:
    @given(
        a=st.floats(1e-7, 0.9),
        lam=st.floats(0.0, 1.0),
        idx=st.integers(0, 5),
    )
    @settings(max_examples=120, deadline=None)
    def test_r_plus_lam_q_is_one(self, a, lam, idx):
        m = catalogue()[idx]
        a = min(a, m.alpha_max * 0.999)
        r = m.r(a, lam)
        q = m.q(a, lam)
        assert r + lam * q == pytest.approx(1.0, abs=1e-12)

    def test_identity_tiny_lam_iterated(self):
        # cancellation-prone region: expm1 path keeps the identity exact
        m = iterated_tikhonov(3)
        for lam in [1e-18, 1e-12, 1e-8]:
            val = m.r(0.5, lam) + lam * m.q(0.5, lam)
            assert val == pytest.approx(1.0, abs=1e-13)


class TestCertification:
    @pytest.mark.parametrize("m", catalogue(), ids=lambda m: m.name)
    def test_axioms_hold_on_grid(self, m):
        alphas, lams = default_grids(m)
        rep = check_assumption_sr(m, alphas, lams)
        assert rep.passed, rep.to_dict()
        lo, hi = rep.diagonal_range
        assert m.c_low - 1e-12 <= lo <= hi <= m.c_diag + 1e-12

    def test_constant_methods_match_diag_exactly(self):
        # the four methods with c_low = c_diag sit on the constant to 1e-12
        for m in [tikhonov(), showalter(), iterated_tikhonov(2),
                  iterated_tikhonov(3), modified_spectral_cutoff()]:
            alphas, lams = default_grids(m)
            rep = check_assumption_sr(m, alphas, lams)
            lo, hi = rep.diagonal_range
            assert abs(lo - m.c_low) < 1e-12
            assert abs(hi - m.c_diag) < 1e-12

    def test_violation_reported_with_witness(self):
        # deliberately misdeclared constants must fail with a witness
        bad = tikhonov()
        bad = type(bad)(
            name="tikhonov",
            c_q=0.1,
            c_low=0.5,
            c_diag=0.5,
            alpha_max=math.inf,
        )
        alphas, lams = default_grids(bad)
        rep = check_assumption_sr(bad, alphas, lams)
        assert not rep.q_bound.passed
        assert rep.q_bound.witness is not None

    def test_serialization_round_trip(self):
        for m in catalogue():
            back = filter_from_dict(m.to_dict())
            assert back.name == m.name
            assert back.c_low == pytest.approx(m.c_low)
            assert back.alpha_max == pytest.approx(m.alpha_max)


class TestQualification:
    def test_tikhonov_within_qualification(self):
        # kappa^nu = t^0.5: sup of r * sqrt(lam/alpha) is 1/2 at lam = alpha
        rep = qualification_constant(
            tikhonov(),
            PowerIndex(0.25),
            nu=2.0,
            alpha_grid=np.geomspace(1e-6, 1.0, 60),
            lam_grid=np.geomspace(1e-9, 1.0, 600),
        )
        assert rep.value == pytest.approx(0.5, rel=0.02)
        assert not rep.diverging

    def test_tikhonov_beyond_qualification_diverges(self):
        # kappa^nu = t^1.5 exceeds the classical qualification 1
        rep = qualification_constant(
            tikhonov(),
            PowerIndex(0.75),
            nu=2.0,
            alpha_grid=np.geomspace(1e-8, 1.0, 60),
            lam_grid=np.geomspace(1e-9, 1.0, 300),
        )
        assert rep.diverging
        assert rep.value > 10

    def test_landweber_infinite_qualification(self):
        rep = qualification_constant(
            landweber(mu_step=0.9),
            PowerIndex(0.75),
            nu=2.0,
            alpha_grid=np.geomspace(1e-6, 0.9, 50),
            lam_grid=np.geomspace(1e-9, 1.0, 300),
        )
        assert not rep.diverging


EPS = np.finfo(float).eps

# the catalogue plus landweber and lardy widened to alpha_max = 4, so the
# grid below reaches the k = 0 slab alpha > 1
TABLE_METHODS = catalogue() + [
    dataclasses.replace(landweber(mu_step=0.9), alpha_max=4.0),
    dataclasses.replace(lardy(beta=1.0), alpha_max=4.0),
]


def _table_id(m):
    return f"{m.name}-to-{m.alpha_max:g}"


class TestAlphaColumn:
    @pytest.mark.parametrize("m", TABLE_METHODS, ids=_table_id)
    def test_table_matches_scalar_calls(self, m):
        alphas = np.geomspace(1e-6, min(m.alpha_max, 4.0), 23)
        # lam = 0 limits, and mu lam = 1 where landweber's log1p is -inf
        lams = np.concatenate([[0.0], np.geomspace(1e-9, 1.0, 18), [1.0 / 0.9]])
        if m.alpha_max == 4.0:
            assert np.any(iteration_count(alphas) == 0)
        tables = {"r": m.r(alphas[:, None], lams), "q": m.q(alphas[:, None], lams)}
        for name, table in tables.items():
            assert table.shape == (alphas.size, lams.size)
            for i, a in enumerate(alphas):
                for j, lam in enumerate(lams):
                    one = getattr(m, name)(float(a), float(lam))
                    assert isinstance(one, float)
                    assert table[i, j] == pytest.approx(one, rel=4 * EPS, abs=0.0)

    @pytest.mark.parametrize("m", TABLE_METHODS[-2:], ids=_table_id)
    def test_k_zero_slab_next_to_k_two(self, m):
        # alpha = 2 runs no iteration: r = 1, q = 0, even at mu lam = 1
        lams = np.array([0.0, 0.5, 1.0 / 0.9])
        r = m.r(np.array([[2.0], [0.5]]), lams)
        q = m.q(np.array([[2.0], [0.5]]), lams)
        np.testing.assert_array_equal(r[0], 1.0)
        np.testing.assert_array_equal(q[0], 0.0)
        assert not np.signbit(q[0]).any()
        assert r[1, 0] == 1.0 and np.all(r[1, 1:] < 1.0)
        assert np.all(q[1] > 0.0)

    def test_out_of_range_alpha_in_a_column_is_named(self):
        m = landweber(mu_step=0.9)
        with pytest.raises(DomainError, match="alpha=1.5"):
            m.r(np.array([[0.1], [1.5]]), [0.2])
