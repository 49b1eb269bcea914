import math

import numpy as np
import pytest

from specreg.errors import DomainError
from specreg.filters import landweber, tikhonov
from specreg.index_functions import PowerIndex, theta_inverse
from specreg.param_choice import (
    a_priori_rule,
    choose_a_priori,
    choose_discrepancy,
    choose_lepskii,
    delta_set,
    discrepancy_rule,
    grid_inf_error,
    lepskii_rule,
    oracle_rule,
    quasioptimality_ratio,
)
from specreg.problems import sideways_heat
from specreg.regularize import error_breakdown, worst_case_error
from specreg.spectral import (
    DeterministicNoise,
    SpectralElement,
    SpectralOperator,
    WhiteNoise,
)


def make_element(eigenvalues, multiplicities, coefficients):
    op = SpectralOperator(
        np.asarray(eigenvalues, dtype=float),
        np.asarray(multiplicities, dtype=np.int64),
    )
    return SpectralElement(op, np.asarray(coefficients, dtype=float))


def sobolev_like(n_levels=60, decay=1.0):
    lams = 1.0 / np.arange(1, n_levels + 1, dtype=float) ** 2
    mult = np.ones(n_levels, dtype=np.int64)
    coeff = np.arange(1, n_levels + 1, dtype=float) ** (-decay - 0.5)
    return make_element(lams, mult, coeff)


class TestAPriori:
    def test_exact_grid_hit(self):
        # kappa = sqrt(t) gives Theta(lam) = lam, so ideal alpha = delta
        kappa = PowerIndex(0.5)
        grid = np.geomspace(1e-6, 1.0, 25)
        delta = grid[7]
        choice = choose_a_priori(kappa, float(delta), grid)
        assert choice.index == 7
        assert choice.flag == ""

    def test_log_snapping(self):
        kappa = PowerIndex(0.5)
        grid = np.array([1e-4, 1e-2, 1.0])
        # ideal 3.1e-3 sits between the decades, nearer 1e-2 in log scale
        choice = choose_a_priori(kappa, 3.2e-3, grid)
        assert choice.index == 1

    def test_clamps(self):
        kappa = PowerIndex(0.5, domain_max=1.0)
        grid = np.geomspace(1e-4, 0.5, 10)
        big = choose_a_priori(kappa, 1e6, grid)
        assert big.flag == "clamped_high" and big.index == grid.size - 1
        tiny = choose_a_priori(kappa, 1e-300, grid)
        assert tiny.flag == "clamped_low" and tiny.index == 0

    def test_capped_table_kappa(self):
        # sideways heat's kappa is a capped table: a budget inside its range
        # snaps like any other, one below the table clamps low
        kappa = sideways_heat(64, 1.0).kappa
        grid = np.geomspace(1e-4, 1.0, 50)
        choice = choose_a_priori(kappa, 1e-3, grid)
        ideal = theta_inverse(kappa, 1e-3)
        assert choice.flag == "" and choice.index == int(
            np.argmin(np.abs(np.log(grid / ideal)))
        )
        tiny = choose_a_priori(kappa, 1e-12, grid)
        assert tiny.flag == "clamped_low" and tiny.index == 0


class TestDiscrepancy:
    def test_single_mode_threshold(self):
        # residual alpha/(alpha+1); threshold 0.3 admits alpha <= 3/7
        x = make_element([1.0], [1], [1.0])
        data = x  # sqrt(lam) = 1
        grid = np.array([0.1, 0.3, 3.0 / 7.0, 1.0])
        choice = choose_discrepancy(
            tikhonov(), data, delta=0.15, alphas=grid, tau=2.0
        )
        assert choice.alpha == pytest.approx(3.0 / 7.0)
        assert choice.flag == ""

    def test_unreachable_budget_flagged(self):
        x = make_element([1.0], [1], [1.0])
        grid = np.array([0.5, 1.0, 2.0])
        choice = choose_discrepancy(
            tikhonov(), x, delta=1e-6, alphas=grid, tau=1.5
        )
        assert choice.index == 0
        assert choice.flag == "no_alpha_met_discrepancy"

    def test_residual_monotonicity_drives_choice(self):
        x = sobolev_like()
        lam = x.op.slot_eigenvalues
        data = x.with_coefficients(np.sqrt(lam) * x.coefficients)
        grid = np.geomspace(1e-6, 0.9, 40)
        m = tikhonov()
        res = np.array(
            [np.linalg.norm(m.r(a, lam) * data.coefficients) for a in grid]
        )
        assert np.all(np.diff(res) >= -1e-15)
        choice = choose_discrepancy(m, data, delta=res[20] / 2.0, alphas=grid)
        assert choice.index == 20


class TestLepskii:
    def test_stays_on_the_safe_side_of_the_oracle(self):
        # balancing never picks less smoothing than the oracle and pays a
        # bounded factor; measured ratios on this fixture are 2.6 to 4.1
        x = sobolev_like(n_levels=80)
        grid = np.geomspace(1e-5, 0.5, 30)
        m = tikhonov()
        last_choice = grid.size
        for delta in [1e-2, 1e-3, 1e-4]:
            noise = DeterministicNoise(delta)
            rep = quasioptimality_ratio(lepskii_rule(), m, x, noise, grid)
            assert rep.chosen.index >= rep.best.index
            assert rep.ratio <= 6.0
            # larger budgets smooth at least as much
            assert rep.chosen.index <= last_choice
            last_choice = rep.chosen.index

    def test_zero_budget_degenerates_to_smallest(self):
        x = sobolev_like(n_levels=10)
        lam = x.op.slot_eigenvalues
        data = x.with_coefficients(np.sqrt(lam) * x.coefficients)
        choice = choose_lepskii(
            tikhonov(), data, DeterministicNoise(0.0), np.geomspace(1e-3, 0.1, 5)
        )
        assert choice.index == 0
        assert choice.flag == "degenerate_noise_scale"

    def test_white_noise_scale_used(self):
        x = sobolev_like(n_levels=40)
        lam = x.op.slot_eigenvalues
        data = x.with_coefficients(np.sqrt(lam) * x.coefficients)
        grid = np.geomspace(1e-4, 0.5, 20)
        choice = choose_lepskii(
            tikhonov(), data, WhiteNoise(epsilon=1e-3, seed=0), grid
        )
        assert 0 <= choice.index < grid.size


class TestDeltaSet:
    def test_tikhonov_single_mode_identity(self):
        # bias/||R|| = (alpha r)/(q sqrt(lam)) = alpha for lam = coeff = 1
        x = make_element([1.0], [1], [1.0])
        grid = np.geomspace(1e-6, 1.0, 30)
        rep = delta_set(tikhonov(), x, grid)
        assert np.max(np.abs(rep.deltas - grid)) < 1e-12
        # consecutive ratios of a geometric grid are constant
        expected_gamma = (grid[-1] / grid[0]) ** (1.0 / (grid.size - 1))
        assert rep.gamma_hat == pytest.approx(expected_gamma, rel=1e-10)

    def test_landweber_iteration_grid_gamma(self):
        x = make_element([0.5], [1], [1.0])
        m = landweber(mu_step=0.9)
        grid = np.array(sorted(1.0 / k for k in range(2, 40)))
        rep = delta_set(m, x, grid)
        bound = 2.0 / (1.0 - 0.9 * 0.5) ** 2
        assert rep.gamma_hat <= bound

    def test_degenerate_bias_rejected(self):
        x = make_element([1.0], [1], [0.0])
        with pytest.raises(DomainError):
            delta_set(tikhonov(), x, np.geomspace(1e-3, 0.1, 5))


class TestQuasiOptimality:
    def test_oracle_rule_scores_one(self):
        x = sobolev_like(n_levels=50)
        grid = np.geomspace(1e-5, 0.5, 25)
        for noise in [DeterministicNoise(1e-3), WhiteNoise(1e-3, seed=2)]:
            rep = quasioptimality_ratio(oracle_rule(), tikhonov(), x, noise, grid)
            assert rep.ratio == pytest.approx(1.0, abs=1e-12)
            assert rep.chosen.index == rep.best.index

    def test_a_priori_rule_near_optimal_when_well_specified(self):
        # kappa = t^0.5 matches coefficients decaying one power faster
        # than the eigenvalues; measured ratios stay modest
        x = sobolev_like(n_levels=120, decay=1.0)
        grid = np.geomspace(1e-6, 0.5, 40)
        rep = quasioptimality_ratio(
            a_priori_rule(PowerIndex(0.5)),
            tikhonov(),
            x,
            DeterministicNoise(1e-4),
            grid,
        )
        assert 1.0 <= rep.ratio <= 5.0

    def test_discrepancy_rule_deterministic(self):
        x = sobolev_like(n_levels=80)
        grid = np.geomspace(1e-6, 0.5, 30)
        rep = quasioptimality_ratio(
            discrepancy_rule(tau=1.5),
            tikhonov(),
            x,
            DeterministicNoise(1e-3),
            grid,
        )
        assert rep.ratio <= 10.0
        assert rep.achieved >= rep.best_value

    def test_grid_inf_matches_dense_scan(self):
        x = sobolev_like(n_levels=40)
        grid = np.geomspace(1e-5, 0.5, 20)
        noise = DeterministicNoise(5e-3)
        choice, val = grid_inf_error(tikhonov(), x, noise, grid)
        dense = [
            worst_case_error(tikhonov(), float(a), x, 5e-3).value for a in grid
        ]
        assert val == pytest.approx(min(dense), rel=1e-12)
        assert choice.index == int(np.argmin(dense))

    def test_grid_inf_white(self):
        x = sobolev_like(n_levels=40)
        grid = np.geomspace(1e-5, 0.5, 20)
        noise = WhiteNoise(epsilon=1e-3, seed=0)
        choice, val = grid_inf_error(tikhonov(), x, noise, grid)
        dense = [
            error_breakdown(tikhonov(), float(a), x, noise).total for a in grid
        ]
        assert val == pytest.approx(min(dense), rel=1e-12)
