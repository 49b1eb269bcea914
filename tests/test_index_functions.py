import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specreg.errors import DomainError, OutOfRangeError
from specreg.index_functions import (
    CappedIndex,
    ComposedIndex,
    LogPowerIndex,
    PowerIndex,
    PsiProfile,
    TabulatedIndex,
    check_structure,
    index_function_from_dict,
    psi_kappa,
    psi_kappa_v,
    theta,
    theta_inverse,
)
from specreg.problems import gradiometry, sideways_heat


def power_psi_oracle(nu, t):
    # closed form for kappa(t) = t**nu: psi(t) = t**(2 nu / (2 nu + 1))
    return t ** (2 * nu / (2 * nu + 1))


class TestEval:
    def test_zero_maps_to_zero(self):
        for f in [PowerIndex(0.5), LogPowerIndex(1.0), ComposedIndex(PowerIndex(1.0), scale=2.0)]:
            assert f(0.0) == 0.0

    def test_power_values(self):
        f = PowerIndex(0.5)
        assert f(4.0) == pytest.approx(2.0, rel=1e-15)
        np.testing.assert_allclose(f(np.array([1.0, 9.0])), [1.0, 3.0])

    def test_logpower_value(self):
        f = LogPowerIndex(p=1.0, shift=0.0)
        assert f(math.exp(-2.0)) == pytest.approx(0.5, rel=1e-14)

    def test_logpower_domain_error(self):
        f = LogPowerIndex(p=1.0, shift=0.0)
        with pytest.raises(DomainError):
            f(1.0)

    def test_negative_argument_rejected(self):
        with pytest.raises(DomainError):
            PowerIndex(1.0)(-1.0)

    def test_tabulated_interpolates_and_refuses_extrapolation(self):
        pts = np.array([[1e-4, 1e-2], [1e-2, 1e-1], [1.0, 1.0]])
        f = TabulatedIndex(pts)
        # log-log linear through (1e-2,1e-1),(1,1): value at 1e-1 is 10**(-0.5)
        assert f(1e-1) == pytest.approx(10 ** (-0.5), rel=1e-12)
        with pytest.raises(DomainError):
            f(2.0)
        with pytest.raises(DomainError):
            f(1e-6)

    def test_composed_scale_and_power(self):
        f = ComposedIndex(PowerIndex(0.5), scale=3.0, power=2.0, arg_scale=2.0)
        # 3 * ( (2t)**0.5 )**2 = 6 t
        assert f(5.0) == pytest.approx(30.0, rel=1e-14)

    def test_capped_plateau(self):
        f = CappedIndex(PowerIndex(1.0), cap_at=0.5)
        assert f(0.25) == 0.25
        assert f(2.0) == 0.5
        assert not f.strictly_increasing

    def test_unchecked_values_equal_checked_ones(self):
        table = TabulatedIndex(np.array([[1e-4, 1e-2], [1e-2, 1e-1], [1.0, 1.0]]))
        fns = [
            PowerIndex(0.75),
            LogPowerIndex(p=0.5, shift=1.2),
            table,
            ComposedIndex(LogPowerIndex(p=1.0, shift=3.0), scale=1.4, power=2.0),
            ComposedIndex(table, arg_scale=4.0),
            CappedIndex(table, cap_at=0.5),
        ]
        for f in fns:
            lo, hi = max(f.domain_min, 1e-9), min(f.domain_max, 2.0)
            t = np.concatenate([[0.0], np.geomspace(lo, hi, 97)])
            np.testing.assert_array_equal(f.unchecked(t), f(t))

    def test_wrappers_check_the_domain_of_their_base(self):
        # t = 1 passes the wrapper's own domain_max test, with its 1e-12
        # slack, but is outside the log-power base (t < e^shift = 1)
        with pytest.raises(DomainError, match="exp"):
            ComposedIndex(LogPowerIndex(p=1.0, shift=0.0))(1.0)
        table = TabulatedIndex(np.array([[1e-4, 1e-2], [1.0, 1.0]]))
        with pytest.raises(DomainError, match="below the tabulated range"):
            CappedIndex(table, cap_at=0.5)(1e-6)

    def test_serialization_round_trip(self):
        fns = [
            PowerIndex(0.75),
            LogPowerIndex(p=0.5, shift=1.2),
            TabulatedIndex(np.array([[0.1, 0.2], [1.0, 0.9]])),
            ComposedIndex(LogPowerIndex(p=1.0, shift=3.0), scale=1.4, power=2.0),
            CappedIndex(PowerIndex(0.5), cap_at=0.1),
        ]
        for f in fns:
            g = index_function_from_dict(f.to_dict())
            for t in [0.0, 0.05, 0.1]:
                if t <= f.domain_max and (not isinstance(f, TabulatedIndex) or t == 0 or t >= 0.1):
                    assert float(np.asarray(g(t))) == pytest.approx(float(np.asarray(f(t))), rel=1e-14)


class TestThetaInversion:
    @given(
        nu=st.floats(0.1, 2.0),
        lam=st.floats(1e-8, 1e4),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_power(self, nu, lam):
        f = PowerIndex(nu)
        y = theta(f, lam)
        lam_back = theta_inverse(f, y)
        assert theta(f, lam_back) == pytest.approx(y, rel=1e-11)

    def test_round_trip_logpower(self):
        f = LogPowerIndex(p=0.5, shift=0.0)
        for lam in [1e-20, 1e-8, 1e-2, 0.5]:
            y = theta(f, lam)
            assert theta(f, theta_inverse(f, y)) == pytest.approx(y, rel=1e-11)

    @pytest.mark.parametrize(
        "kappa",
        [sideways_heat(64, 1.0).kappa, gradiometry(4.0, 24, 1.0).kappa],
        ids=["sideways_heat", "gradiometry"],
    )
    def test_capped_table_stays_inside_its_table(self, kappa):
        # the fixtures' kappa is CappedIndex(TabulatedIndex): brackets and
        # midpoints must keep to the table, down to its first sample
        floor = kappa.domain_min
        assert floor == kappa.base.domain_min > 0
        for lam in [floor * (1 + 1e-9), 3 * floor, 1e-3, 0.5]:
            y = theta(kappa, lam)
            assert theta(kappa, theta_inverse(kappa, y)) == pytest.approx(y, rel=1e-11)
        with pytest.raises(OutOfRangeError):
            theta_inverse(kappa, theta(kappa, floor) * 0.5)
        t = np.array([theta(kappa, 3 * floor) ** 2, 1e-4])
        np.testing.assert_allclose(
            PsiProfile.build(kappa).eval_many(t), psi_kappa(kappa, t), rtol=1e-9
        )
        assert psi_kappa_v(kappa, lambda a: a**-0.5, 1e-6) > 0

    def test_wrappers_forward_domain_min(self):
        table = TabulatedIndex(np.array([[1e-4, 1e-2], [1.0, 1.0]]))
        assert PowerIndex(0.5).domain_min == 0.0
        assert CappedIndex(table, cap_at=0.5).domain_min == 1e-4
        assert ComposedIndex(table, arg_scale=4.0).domain_min == 2.5e-5

    def test_out_of_range_rejected(self):
        f = LogPowerIndex(p=1.0, shift=0.0)
        top = theta(f, f.domain_max)
        with pytest.raises(OutOfRangeError):
            theta_inverse(f, top * 10)
        with pytest.raises(OutOfRangeError):
            theta_inverse(f, -1.0)


class TestPsi:
    def test_power_frozen_examples(self):
        # kappa(t) = t: psi(t) = t**(2/3)
        f = PowerIndex(1.0)
        assert psi_kappa(f, 1.0) == pytest.approx(1.0, rel=1e-8)
        assert psi_kappa(f, 1e-3) == pytest.approx(1e-2, rel=1e-8)

    @pytest.mark.parametrize("nu", [0.1, 0.25, 0.5, 1.0])
    def test_power_closed_form_across_grid(self, nu):
        f = PowerIndex(nu)
        t = np.geomspace(1e-12, 1.0, 120)
        got = psi_kappa(f, t)
        np.testing.assert_allclose(got, power_psi_oracle(nu, t), rtol=1e-8)

    @pytest.mark.parametrize("nu,beta", [(0.5, 1e-3), (1.0, 0.2), (0.25, 3.0)])
    def test_identity_psi_of_theta_squared(self, nu, beta):
        # psi(beta * kappa(beta)^2) = kappa(beta)^2 for any index function
        f = PowerIndex(nu)
        kb2 = float(f(beta)) ** 2
        assert psi_kappa(f, beta * kb2) == pytest.approx(kb2, rel=1e-10)

    @pytest.mark.parametrize("p", [0.25, 0.5])
    def test_logpower_asymptotic_ratio(self, p):
        # psi(t) / (-ln t)^(-2p) -> 1; prefactor convergence is slow, so the
        # band below is checked at t = 1e-30 for small p only.
        f = LogPowerIndex(p=p, shift=0.0)
        t = 1e-30
        ratio = psi_kappa(f, t) / (-math.log(t)) ** (-2 * p)
        assert 0.8 <= ratio <= 1.25

    def test_psi_zero(self):
        assert psi_kappa(PowerIndex(0.5), 0.0) == 0.0

    def test_profile_matches_direct(self):
        f = LogPowerIndex(p=1.0, shift=3.0)
        prof = PsiProfile.build(f)
        t = np.geomspace(1e-25, 1.0, 64)
        direct = psi_kappa(f, t)
        np.testing.assert_allclose(prof.eval_many(t), direct, rtol=1e-9)

    def test_profile_clamp_is_lower_bound(self):
        f = LogPowerIndex(p=1.0, shift=0.0)
        prof = PsiProfile.build(f)
        big = prof.t_max * 100
        with pytest.raises(OutOfRangeError):
            prof.eval(big)
        assert prof.eval(big, clamp=True) == pytest.approx(prof.eval(prof.t_max), rel=1e-9)


class TestPsiWithEnvelope:
    def test_power_envelope_frozen_example(self):
        # kappa = sqrt(alpha), v = alpha^(-3/4): kappa/v = alpha^(5/4),
        # psi(eps^2) = (eps^(4/5))  -> 1e-4 at eps = 1e-5
        f = PowerIndex(0.5)
        v = lambda a: a ** (-0.75)
        assert psi_kappa_v(f, v, (1e-5) ** 2) == pytest.approx(1e-4, rel=1e-8)

    def test_identity_eps_sq_times_v_sq(self):
        # psi_{kappa,v}(eps^2) = eps^2 * v(G^{-1}(eps))^2 holds at the root
        f = PowerIndex(0.5)
        v = lambda a: a ** (-0.75)
        eps = 3e-4
        psi = psi_kappa_v(f, v, eps**2)
        alpha = (eps) ** (4.0 / 5.0)  # G(alpha) = alpha^(5/4)
        assert psi == pytest.approx(eps**2 * v(alpha) ** 2, rel=1e-8)

    def test_constant_envelope_rejected(self):
        f = PowerIndex(0.5)
        with pytest.raises(DomainError):
            psi_kappa_v(f, lambda a: 1.0, 1e-4)


class TestStructure:
    def test_power_law_mu_and_growth(self):
        f = PowerIndex(0.4)
        rep = check_structure(f, np.geomspace(1e-8, 1.0, 80))
        assert rep.mu_hat == pytest.approx(0.2, abs=1e-12)
        assert rep.growth_p_hat == pytest.approx(0.4, rel=1e-9)
        assert rep.strictly_increasing
        assert rep.kk_concave  # t^0.8 is concave
        assert rep.passed

    def test_convex_square_detected(self):
        f = PowerIndex(1.0)  # kappa^2 = t^2 convex
        rep = check_structure(f, np.geomspace(1e-4, 1.0, 40))
        assert not rep.kk_concave

    @pytest.mark.parametrize("kind", ["power", "logpower", "tabulated"])
    def test_growth_is_the_largest_pairwise_slope(self, kind):
        # growth_p_hat is defined as the largest log-log slope over all
        # pairs of grid points; the pairwise maximum is formed here
        rng = np.random.default_rng(17)
        for _ in range(20):
            if kind == "power":
                f, lo, hi = PowerIndex(rng.uniform(0.05, 1.0)), -12.0, 0.0
            elif kind == "logpower":
                f, lo, hi = LogPowerIndex(rng.uniform(0.2, 2.0)), -12.0, -0.5
            else:
                t = np.geomspace(1e-10, 1.0, 40)
                v = np.cumsum(rng.uniform(0.1, 1.0, t.size)) * t**0.3
                f, lo, hi = TabulatedIndex(np.column_stack([t, v])), -10.0, 0.0
            grid = np.unique(10.0 ** rng.uniform(lo, hi, rng.integers(3, 200)))
            logv, logt = np.log(np.asarray(f(grid))), np.log(grid)
            i, j = np.triu_indices(grid.size, k=1)
            pairwise = np.max((logv[j] - logv[i]) / (logt[j] - logt[i]))
            got = check_structure(f, grid).growth_p_hat
            assert got == pytest.approx(pairwise, rel=1e-12)

    def test_no_admissible_mu(self):
        # kappa = t^0.5: kappa^2/t^(1-mu) = t^mu increasing for all mu > 0
        rep = check_structure(PowerIndex(0.5), np.geomspace(1e-6, 1.0, 50))
        assert rep.mu_hat is None

    def test_declared_mu_validated(self):
        with pytest.raises(ValueError):
            PowerIndex(0.5, mu=0.3)
        f = PowerIndex(0.25, mu=0.5)  # t^0.5 / t^0.5 constant: admissible
        assert f.mu == 0.5
