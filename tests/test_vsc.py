"""Tests for the variational-source-condition calculus."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from oracles import (
    dense_falsify_probes,
    dense_gaussians,
    dense_spikes,
    dense_truncations,
    dense_vsc_residuals,
)

from specreg import vsc
from specreg.errors import BasisMismatchError, DomainError
from specreg.index_functions import (
    LogPowerIndex,
    PowerIndex,
    PsiProfile,
    psi_kappa,
)
from specreg.problems import (
    backward_heat,
    backward_heat_decay_index,
    single_layer_circle,
    sobolev_scale,
)
from specreg.spectral import SpectralElement, SpectralOperator, spectral_distribution, xtk_norm
from specreg.vsc import (
    FalsificationReport,
    ProjectionFamily,
    VscProfile,
    decay_to_vsc,
    general_strategy_psi,
    spectral_sc_to_vsc,
    vsc_falsify,
    vsc_residual,
    vsc_to_decay_bound,
)


def sobolev_fixture(n_levels=400, a=0.5):
    """lam_m = m^-2 with coefficients m^-(a+1/2): decay index Power(a/2)."""
    m = np.arange(1, n_levels + 1, dtype=float)
    op = SpectralOperator.from_levels(m**-2.0)
    coef = m ** -(a + 0.5)
    return op, SpectralElement(op, coef)


def log_decay_fixture(n_levels=30, shift=2.0):
    """lam_n = e^-2n with tail norms exactly kappa(lam_n), kappa log-type."""
    kappa = LogPowerIndex(0.5, shift)
    lam = np.exp(-2.0 * np.arange(1, n_levels + 1, dtype=float))
    op = SpectralOperator.from_levels(lam)
    kap_sq = np.asarray(kappa(lam)) ** 2
    coef_sq = kap_sq - np.append(kap_sq[1:], 0.0)
    return op, SpectralElement(op, np.sqrt(coef_sq)), kappa


class TestGeneralStrategy:
    def test_single_member_arithmetic(self):
        fam = ProjectionFamily(["r"], np.array([1.0]), np.array([2.0]), c=0.0)
        assert general_strategy_psi(fam, 4.0) == pytest.approx(10.0, abs=1e-14)

    def test_at_zero_returns_smallest_approximation_term(self):
        fam = ProjectionFamily(
            ["a", "b", "c"], np.array([3.0, 1.5, 2.0]), np.array([1.0, 4.0, 2.0]), c=1.0
        )
        assert general_strategy_psi(fam, 0.0) == pytest.approx(2 * 4 * 1.5**2, abs=1e-12)

    def test_requires_positive_moduli(self):
        with pytest.raises(DomainError):
            ProjectionFamily(["a"], np.array([0.0]), np.array([1.0]))
        with pytest.raises(DomainError):
            ProjectionFamily([], np.array([]), np.array([]))

    def test_nondecreasing_and_concave_in_sqrt_t(self):
        rng = np.random.default_rng(5)
        fam = ProjectionFamily(
            list(range(12)),
            rng.uniform(0.1, 3.0, 12),
            rng.uniform(0.1, 3.0, 12),
            c=0.3,
        )
        s = np.linspace(0.0, 5.0, 200)
        vals = general_strategy_psi(fam, s**2)
        diffs = np.diff(vals)
        assert np.all(diffs >= -1e-12)
        # concavity in s: second differences nonpositive on the uniform grid
        assert np.all(np.diff(vals, 2) <= 1e-10)

    def test_spectral_family_matches_theorem_constant(self):
        # the family behind the decay-to-VSC conversion: kappa(rho) from the
        # decay certificate, sigma(rho) = kappa(rho)/sqrt(mu rho) + ||x||
        op, x = sobolev_fixture()
        mu = 0.2
        profile = decay_to_vsc(x, op, PowerIndex(0.25), mu)
        kap = profile.kappa
        lam_grid = np.geomspace(op.eigenvalues[-1], op.eigenvalues[0], 400)
        kv = np.asarray(kap(lam_grid))
        fam = ProjectionFamily(
            list(lam_grid),
            kv,
            kv / np.sqrt(mu * lam_grid) + x.norm(),
            c=0.0,
        )
        theta = np.sqrt(lam_grid) * kv
        t_grid = np.geomspace(theta[0] ** 2 * 10, theta[-1] ** 2 / 10, 25)
        strategy = general_strategy_psi(fam, t_grid)
        base = profile.psi_profile.eval_many(t_grid)
        ratio = strategy / base
        assert np.all(ratio >= 2.0 - 1e-9)
        assert np.all(ratio <= profile.A * 1.05)


class TestResidual:
    def test_zero_at_exact_solution(self):
        op, x = sobolev_fixture(50)
        profile = spectral_sc_to_vsc(PowerIndex(0.5), 1.0)
        assert vsc_residual(x, x, op, profile) == 0.0

    def test_far_probes_nonpositive_for_any_profile(self):
        op, x = sobolev_fixture(50)
        # adversarially small psi: the far branch must not depend on it
        profile = VscProfile(
            A=1e-12, kappa=PowerIndex(0.5), psi_profile=PsiProfile.build(PowerIndex(0.5))
        )
        rng = np.random.default_rng(11)
        for _ in range(20):
            h = rng.standard_normal(op.n_slots)
            h *= 4.0 * x.norm() * rng.uniform(1.0, 8.0) / np.linalg.norm(h)
            probe = x.with_coefficients(x.coefficients + h)
            assert vsc_residual(x, probe, op, profile) <= 1e-12

    def test_truncation_identity(self):
        op, x = sobolev_fixture(60)
        profile = decay_to_vsc(x, op, PowerIndex(0.25), 0.2)
        for level in [0, 3, 17, 59]:
            lam = op.eigenvalues[level]
            start = op.slot_offsets[level]
            coef = x.coefficients.copy()
            coef[start:] = 0.0
            probe = x.with_coefficients(coef)
            tail_sq = spectral_distribution(x, lam) ** 2
            image_sq = float(
                np.dot(op.slot_eigenvalues[start:], x.coefficients[start:] ** 2)
            )
            expected = 1.5 * tail_sq - profile.psi(image_sq)
            got = vsc_residual(x, probe, op, profile)
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-14)

    def test_elements_over_another_operator_are_refused(self):
        op, x = sobolev_fixture(50)
        profile = decay_to_vsc(x, op, PowerIndex(0.25), 0.2)
        # an equal operator held in another object is the same operator
        twin = SpectralElement(SpectralOperator.from_levels(op.eigenvalues), x.coefficients)
        assert vsc_residual(twin, twin, op, profile) == 0.0
        shorter = sobolev_fixture(40)[1]
        doubled = SpectralOperator(op.eigenvalues, np.full(op.eigenvalues.size, 2))
        wider = SpectralElement(doubled, np.ones(doubled.n_slots))
        for z in (shorter, wider):
            with pytest.raises(BasisMismatchError):
                vsc_residual(z, x, op, profile)
            with pytest.raises(BasisMismatchError):
                vsc_residual(x, z, op, profile)
            with pytest.raises(BasisMismatchError):
                decay_to_vsc(z, op, PowerIndex(0.25), 0.2)
            with pytest.raises(BasisMismatchError):
                vsc_falsify(z, op, profile, n_probes=10, seed=0)


class TestDecayToVsc:
    def test_constant_meets_documented_lower_bound(self):
        op, x = sobolev_fixture()
        profile = decay_to_vsc(x, op, PowerIndex(0.25), 0.2)
        assert math.isfinite(profile.A)
        assert profile.A >= 2.0 * (1.0 + 5.0)

    def test_normalization_reported_and_applied(self):
        op, x = sobolev_fixture()
        kappa = PowerIndex(0.25)
        profile = decay_to_vsc(x, op, kappa, 0.2)
        assert profile.scale == pytest.approx(xtk_norm(x, kappa), rel=1e-12)
        assert xtk_norm(x, profile.kappa) == pytest.approx(1.0, rel=1e-9)

    def test_zero_element_gives_trivial_profile(self):
        op, x = sobolev_fixture(20)
        zero = x.with_coefficients(np.zeros(op.n_slots))
        profile = decay_to_vsc(zero, op, PowerIndex(0.25), 0.2)
        assert profile.psi(0.37) == 0.0
        rng = np.random.default_rng(3)
        probe = zero.with_coefficients(rng.standard_normal(op.n_slots))
        assert vsc_residual(zero, probe, op, profile) <= 0.0

    def test_rejects_failing_mu_condition(self):
        op, x = sobolev_fixture(50)
        # kappa^2 / t^(1-mu) = t^(mu - 1/2) for Power(0.25): needs mu <= 1/2
        with pytest.raises(DomainError):
            decay_to_vsc(x, op, PowerIndex(0.25), 0.8)

    def test_rejects_nonconcave_square(self):
        op, x = sobolev_fixture(50)
        with pytest.raises(DomainError):
            decay_to_vsc(x, op, PowerIndex(0.75), 0.1)

    def test_profile_psi_concave_on_grid(self):
        op, x = sobolev_fixture()
        profile = decay_to_vsc(x, op, PowerIndex(0.25), 0.2)
        t = np.linspace(1e-6, 4.0, 300)
        vals = profile.psi(t)
        chords = np.diff(vals) / np.diff(t)
        assert np.all(np.diff(chords) <= 1e-9)

    def test_log_type_certificate(self):
        op, x, kappa = log_decay_fixture()
        profile = decay_to_vsc(x, op, kappa, 1.0 / 3.0)
        assert math.isfinite(profile.A)
        assert profile.scale == pytest.approx(1.0, rel=1e-9)
        report = vsc_falsify(x, op, profile, n_probes=2000, seed=1)
        assert report.passed, report.worst_residual


class TestDecayBound:
    def test_unit_factor_returns_kappa(self):
        kappa = PowerIndex(0.25)
        profile = VscProfile(A=1.5, kappa=kappa, psi_profile=PsiProfile.build(kappa))
        for lam in [1e-8, 0.3, 7.0]:
            assert vsc_to_decay_bound(profile, lam, kappa) == pytest.approx(
                float(kappa(lam)), rel=1e-14
            )

    def test_vanishes_at_origin(self):
        kappa = PowerIndex(0.25)
        profile = VscProfile(A=8.0, kappa=kappa, psi_profile=PsiProfile.build(kappa))
        assert vsc_to_decay_bound(profile, 1e-200, kappa) < 1e-40

    def test_secondary_bound_on_domain_excess(self):
        kappa = LogPowerIndex(0.5, 2.0)  # domain ends at e^2
        profile = VscProfile(A=30.0, kappa=kappa, psi_profile=PsiProfile.build(kappa))
        lam = 1.0  # inflated argument 20 > e^2
        factor = math.sqrt(2 * 30.0 / 3)
        expected = factor * max(1.0, factor) * float(kappa(lam))
        assert vsc_to_decay_bound(profile, lam, kappa) == pytest.approx(expected, rel=1e-14)

    def test_round_trip_dominates_distribution(self):
        op, x = sobolev_fixture()
        profile = decay_to_vsc(x, op, PowerIndex(0.25), 0.2)
        factor = math.sqrt(2 * profile.A / 3)
        inflation = factor * max(1.0, factor)
        gaps = []
        for lam in op.eigenvalues:
            bound = vsc_to_decay_bound(profile, float(lam), profile.kappa)
            actual = spectral_distribution(x, float(lam))
            if actual > 0:
                gaps.append(bound / actual)
            # the bound never exceeds the secondary form
            assert bound <= inflation * float(profile.kappa(lam)) * (1 + 1e-12)
        assert min(gaps) >= 1.0


class TestSpectralSourceCondition:
    def test_square_root_gives_linear_psi(self):
        profile = spectral_sc_to_vsc(PowerIndex(0.5), 1.0)
        t = np.geomspace(1e-10, 1.0, 40)
        assert np.allclose(profile.psi(t), 4.0 * np.sqrt(t), rtol=1e-8)

    def test_zero_maps_to_zero(self):
        profile = spectral_sc_to_vsc(PowerIndex(0.25), 2.0)
        assert profile.psi(0.0) == 0.0

    def test_radius_scaling_two_path(self):
        phi = PowerIndex(0.3)
        for rho in [0.5, 1.0, 2.0]:
            profile = spectral_sc_to_vsc(phi, rho)
            for t in [1e-6, 1e-3, 0.1]:
                direct = 4.0 * rho**2 * psi_kappa(phi, t / rho**2)
                assert profile.psi(t) == pytest.approx(direct, rel=1e-9)

    def test_rejects_nonconcave_square(self):
        with pytest.raises(DomainError):
            spectral_sc_to_vsc(PowerIndex(0.75), 1.0)

    def test_small_argument_dichotomy(self):
        # psi(t)/sqrt(t) as t -> 0: diverges for phi slower than sqrt,
        # vanishes for phi faster than sqrt
        slow = spectral_sc_to_vsc(PowerIndex(0.25), 1.0)
        t = np.geomspace(1e-18, 1e-4, 5)
        ratios = slow.psi(t) / np.sqrt(t)
        assert np.all(np.diff(ratios) < 0)  # grows without bound toward 0
        assert ratios[0] > 100 * ratios[-1]
        fast = 4.0 * np.asarray([psi_kappa(PowerIndex(0.75), ti) for ti in t]) / np.sqrt(t)
        assert np.all(np.diff(fast) > 0)  # vanishes toward 0
        assert fast[0] < 0.05 * fast[-1]

    def test_represented_element_passes_falsification(self):
        op, _ = sobolev_fixture(300)
        phi = PowerIndex(0.4)
        rho = 2.0
        rng = np.random.default_rng(19)
        w = rng.standard_normal(op.n_slots)
        w *= 0.9 * rho / np.linalg.norm(w)
        x = SpectralElement(op, np.asarray(phi(op.slot_eigenvalues)) * w)
        profile = spectral_sc_to_vsc(phi, rho)
        report = vsc_falsify(x, op, profile, n_probes=10_000, seed=2)
        assert report.passed, (report.worst_residual, report.worst_family)


class TestFalsification:
    def test_certified_profile_has_no_witness(self):
        op, x = sobolev_fixture()
        profile = decay_to_vsc(x, op, PowerIndex(0.25), 0.2)
        report = vsc_falsify(x, op, profile, n_probes=10_000, seed=0)
        assert report.passed
        assert report.n_probes == 10_000
        assert report.worst_residual <= report.tol

    def test_floor_is_sharp_for_truncations(self):
        op, x = sobolev_fixture()
        profile = decay_to_vsc(x, op, PowerIndex(0.25), 0.2)
        floor = profile.family_a_floor
        assert floor is not None and floor > 0
        # at A = floor the best truncation residual touches zero
        sharp = dataclasses.replace(profile, A=floor)
        best = -math.inf
        for level in range(len(op.eigenvalues)):
            coef = x.coefficients.copy()
            coef[op.slot_offsets[level] :] = 0.0
            best = max(best, vsc_residual(x, x.with_coefficients(coef), op, sharp))
        assert best == pytest.approx(0.0, abs=1e-9 * x.norm() ** 2)

    def test_halving_below_floor_yields_truncation_witness(self):
        op, x = sobolev_fixture()
        profile = decay_to_vsc(x, op, PowerIndex(0.25), 0.2)
        # the certified multiplier is not sharp: even halved it stays above
        # the truncation floor, so the shrink test targets the floor itself
        assert profile.family_a_floor < profile.A / 2
        shrunk = dataclasses.replace(profile, A=profile.family_a_floor / 2)
        report = vsc_falsify(x, op, shrunk, n_probes=4000, seed=0)
        assert not report.passed
        assert report.worst_family == "truncation"
        assert report.worst_residual > 0
        witness = x.with_coefficients(report.witness)
        assert vsc_residual(x, witness, op, shrunk) == pytest.approx(
            report.worst_residual, rel=1e-12
        )

    def test_zero_element_trivially_passes(self):
        op, x = sobolev_fixture(20)
        zero = x.with_coefficients(np.zeros(op.n_slots))
        profile = decay_to_vsc(zero, op, PowerIndex(0.25), 0.2)
        report = vsc_falsify(zero, op, profile, n_probes=500, seed=0)
        assert report.passed
        assert report.worst_residual <= 0.0

    def test_report_serializes(self):
        op, x = sobolev_fixture(30)
        profile = decay_to_vsc(x, op, PowerIndex(0.25), 0.2)
        report = vsc_falsify(x, op, profile, n_probes=200, seed=0)
        d = report.to_dict()
        assert set(d) == {"n_probes", "worst_residual", "worst_family", "witness", "tol", "passed"}
        assert isinstance(d["witness"], list)


def family_fixture(name):
    """A small fixture and its decay-certified profile."""
    if name == "sobolev":
        fx = sobolev_scale(60, 1.0, 0.5)
        return fx.op, fx.x, decay_to_vsc(fx.x, fx.op, fx.kappa, 0.2)
    if name == "heat":  # multiplicity 2 and a zero mode
        fx = backward_heat(1.0, 12, 1.0)
        kappa = backward_heat_decay_index(1.0)
        return fx.op, fx.x, decay_to_vsc(fx.x, fx.op, kappa, 1.0 / 3.0)
    fx = single_layer_circle(40, 0.5)
    return fx.op, fx.x, decay_to_vsc(fx.x, fx.op, fx.kappa, 0.2)


def two_slot_fixture():
    """One level of multiplicity 2 and a near-zero psi: with probes of
    twice the norm, truncations reach 1.5 ||x||^2 and spikes 1.2 ||x||^2,
    while Gaussian directions within 28 degrees of -x exceed 1.5 ||x||^2."""
    op = SpectralOperator.from_levels([1.0], [2])
    x = SpectralElement(op, np.array([0.6, 0.8]))
    kappa = PowerIndex(0.25)
    return op, x, VscProfile(A=1e-9, kappa=kappa, psi_profile=PsiProfile.build(kappa))


FAMILY_FIXTURES = ["sobolev", "heat", "circle"]


def small_blocks(monkeypatch, n_slots, rows=7):
    """Gaussian blocks of ``rows`` probes, so a family spans many blocks."""
    monkeypatch.setattr(vsc, "_PROBE_BYTES", 8 * n_slots * rows)


class TestFamilyResiduals:
    """Each probe family against its dense form (explicit probe rows)."""

    @pytest.mark.parametrize("name", FAMILY_FIXTURES)
    def test_truncation(self, name):
        op, x, profile = family_fixture(name)
        coef, n = x.coefficients, len(op.eigenvalues)
        res, witness = vsc._truncation_family(x, op, profile, n)
        rows = dense_truncations(coef, op.slot_offsets, n)
        dense = dense_vsc_residuals(coef, op.slot_eigenvalues, profile.psi, rows)
        np.testing.assert_allclose(res, dense, rtol=1e-12, atol=0)
        for i in range(n):
            np.testing.assert_array_equal(witness(i), rows[i])

    @pytest.mark.parametrize("name", FAMILY_FIXTURES)
    def test_gaussian(self, name, monkeypatch):
        op, x, profile = family_fixture(name)
        small_blocks(monkeypatch, op.n_slots)
        coef = x.coefficients
        radii = np.geomspace(1e-3, 10.0, 8)[np.arange(500) % 8] * x.norm()
        rng = np.random.default_rng(4)
        res, witness = vsc._gaussian_family(x, op, profile, rng, radii)
        rows = dense_gaussians(coef, np.random.default_rng(4), radii)
        dense = dense_vsc_residuals(coef, op.slot_eigenvalues, profile.psi, rows)
        np.testing.assert_allclose(res, dense, rtol=1e-12, atol=0)
        after = rng.bit_generator.state
        # first and last rows of blocks, the winner, and the short last block
        for i in [0, 6, 7, 13, 250, int(np.argmax(res)), 497, 499]:
            np.testing.assert_allclose(witness(i), rows[i], rtol=1e-12, atol=0)
            assert rng.bit_generator.state == after

    @pytest.mark.parametrize("name", FAMILY_FIXTURES)
    def test_spike(self, name):
        op, x, profile = family_fixture(name)
        coef = x.coefficients
        rng = np.random.default_rng(5)
        slots = rng.integers(0, op.n_slots, size=300)
        values = rng.choice([-1.0, 1.0], 300) * np.geomspace(1e-3, 10.0, 300) * x.norm()
        res, witness = vsc._spike_family(x, op, profile, slots, values)
        rows = dense_spikes(coef, slots, values)
        dense = dense_vsc_residuals(coef, op.slot_eigenvalues, profile.psi, rows)
        np.testing.assert_allclose(res, dense, rtol=1e-12, atol=0)
        for i in range(0, 300, 7):
            np.testing.assert_array_equal(witness(i), rows[i])

    @pytest.mark.parametrize(
        "case", FAMILY_FIXTURES + ["halved-floor", "two-slot"]
    )
    def test_falsify_matches_dense_probes(self, case, monkeypatch):
        scales = np.geomspace(1e-3, 10.0, 8)
        if case == "two-slot":
            op, x, profile = two_slot_fixture()
            scales = np.array([2.0])
        elif case == "halved-floor":
            op, x, profile = family_fixture("sobolev")
            profile = dataclasses.replace(profile, A=profile.family_a_floor / 2)
        else:
            op, x, profile = family_fixture(case)
        small_blocks(monkeypatch, op.n_slots)
        n_probes = len(op.eigenvalues) + 400
        report = vsc_falsify(x, op, profile, n_probes=n_probes, seed=3, scales=scales)

        coef = x.coefficients
        probes = dense_falsify_probes(coef, op.slot_offsets, n_probes, 3, scales)
        best = -math.inf
        for family, rows in probes.items():
            res = dense_vsc_residuals(coef, op.slot_eigenvalues, profile.psi, rows)
            i = int(np.argmax(res))
            if res[i] > best:
                best, best_family, best_row = res[i], family, rows[i]
        assert report.n_probes == sum(len(rows) for rows in probes.values())
        assert report.worst_family == best_family
        assert report.worst_residual == pytest.approx(best, rel=1e-12, abs=0)
        np.testing.assert_allclose(report.witness, best_row, rtol=1e-12, atol=0)
        expected = {"halved-floor": "truncation", "two-slot": "gaussian"}
        assert best_family == expected.get(case, "spike")


class TestLinearMemory:
    def test_certify_and_falsify_twenty_thousand_slots(self):
        # 20k truncations, then Gaussian and spike probes: a G x G
        # structure check or a probes x slots matrix would need gigabytes
        fx = sobolev_scale(20_000, 1.0, 0.5)
        op, x, kappa = fx.op, fx.x, fx.kappa
        tracemalloc.start()
        try:
            profile = decay_to_vsc(x, op, kappa, 0.5)
            report = vsc_falsify(x, op, profile, n_probes=22_000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.n_probes == 22_000
        assert report.passed, (report.worst_residual, report.worst_family)
        assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MB"
