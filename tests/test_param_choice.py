import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import discrepancy_scan, grid_inf_error_loop, lepskii_pairwise

from specreg import param_choice
from specreg.errors import DomainError
from specreg.experiments import default_alpha_grid
from specreg.filters import (
    _TABLE_BYTES,
    catalogue,
    iteration_count,
    iterated_tikhonov,
    landweber,
    showalter,
    tikhonov,
)
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
    quasioptimality_ratio,
)
from specreg.problems import backward_heat, sideways_heat
from specreg.regularize import (
    _worst_case_brackets,
    _worst_case_rows,
    bias,
    error_breakdown,
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

    @pytest.mark.parametrize(
        "method",
        [tikhonov(), showalter(), iterated_tikhonov(2), landweber(0.9)],
        ids=lambda m: m.name,
    )
    def test_ties_at_the_threshold_match_the_loop(self, method):
        # constant is set so that scale_0 equals the loop's computed
        # distance of a pair (i, 0) to the last bit, where some constant
        # within 3 ulps of dist / base does that: the Gram form cannot
        # tell such a tie apart, the direct recheck can
        x = sobolev_like(n_levels=30)
        lam = x.op.slot_eigenvalues
        data = x.with_coefficients(np.sqrt(lam) * x.coefficients)
        grid = np.geomspace(0.2, 0.25, 12)
        noise = DeterministicNoise(0.5)
        base = noise.delta * np.sqrt(method.c_q / grid[0])
        weights = x.op.eigenvalues * data.level_mass
        q0 = method.q(grid[0], x.op.eigenvalues)
        decisive = 0
        for i in range(1, grid.size):
            qi = method.q(grid[i], x.op.eigenvalues)
            dist = math.sqrt(float(np.sum((qi - q0) ** 2 * weights)))
            ties = [c for c in _neighbours(dist / base) if c * base == dist]
            for c in ties:
                below = np.nextafter(c, 0.0)
                for constant in (c, below):
                    got = choose_lepskii(method, data, noise, grid, constant)
                    assert got == lepskii_pairwise(
                        method, data, noise, grid, constant
                    )
                decisive += lepskii_pairwise(
                    method, data, noise, grid, below
                ).index < i <= lepskii_pairwise(method, data, noise, grid, c).index
        assert decisive >= 3


def _neighbours(c: float, ulps: int = 3) -> list[float]:
    out = [c]
    lo = hi = c
    for _ in range(ulps):
        lo, hi = np.nextafter(lo, 0.0), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return out


def random_oracle_case(rng: np.random.Generator, method):
    """A random fixture, grid and noise budget for the grid oracle.

    Most fixtures have a few dozen levels, so a block holds many rows;
    the others have thousands of levels, up to past the point where one
    row fills a block.  Two levels in five carry no mass, so rows whose
    top group lies on such a level take the hard case once delta is
    large enough; budgets of 1e-5 to 1 put such rows beside solved rows
    of the same block in about a quarter of the cases.
    """
    n_levels = int(
        rng.choice(
            [rng.integers(1, 40), rng.integers(1000, 5000), rng.integers(8193, 9000)],
            p=[0.6, 0.25, 0.15],
        )
    )
    lam = np.unique(10.0 ** rng.uniform(-8.0, 0.0, n_levels))[::-1]
    mult = rng.integers(1, 3, lam.size)
    op = SpectralOperator(lam, mult)
    freq = np.repeat(np.arange(1, lam.size + 1, dtype=float), mult)
    coef = rng.choice([-1.0, 1.0], op.n_slots) * freq ** -rng.uniform(0.5, 3.0)
    coef[np.repeat(rng.uniform(size=lam.size) < 0.4, mult)] = 0.0
    hi = min(0.99 * method.alpha_max, 10.0)
    grid = np.geomspace(10.0 ** rng.uniform(-9.0, -4.0), hi, rng.integers(20, 60))
    noise = DeterministicNoise(10.0 ** rng.uniform(-5.0, 0.0))
    return SpectralElement(op, coef), grid, noise


def random_rule_case(rng: np.random.Generator):
    """A random fixture, method, grid, noise draw and rule constants.

    Levels, multiplicities, coefficient decay and signs, the grid span
    and size, the noise level (exactly zero now and then) and the rule
    constants are spread so that picks land anywhere on the grid and
    every flag occurs.
    """
    n_levels = int(rng.integers(1, 40))
    lam = np.unique(10.0 ** rng.uniform(-8.0, 0.0, n_levels))[::-1]
    mult = rng.integers(1, 4, lam.size)
    op = SpectralOperator(lam, mult)
    freq = np.repeat(np.arange(1, lam.size + 1, dtype=float), mult)
    signs = rng.choice([-1.0, 1.0], op.n_slots)
    x = SpectralElement(op, signs * freq ** -rng.uniform(0.5, 3.0))
    kind = int(rng.integers(4))
    if kind == 0:
        method = tikhonov()
    elif kind == 1:
        method = showalter()
    elif kind == 2:
        method = iterated_tikhonov(int(rng.integers(1, 4)))
    else:
        step = float(rng.uniform(0.2, 1.0)) * min(1.0, 1.0 / lam[0])
        method = landweber(step, op_norm_sq=lam[0])
    top = min(10.0 ** rng.uniform(-3.0, 1.0), method.alpha_max)
    span = 10.0 ** rng.uniform(1.0, 8.0)
    grid = np.geomspace(top / span, top, rng.integers(2, 30))
    clean = x.with_coefficients(np.sqrt(op.slot_eigenvalues) * x.coefficients)
    level = 0.0 if rng.random() < 0.05 else 10.0 ** rng.uniform(-9.0, 0.0)
    if rng.random() < 0.5:
        noise = DeterministicNoise(level)
        xi = rng.standard_normal(op.n_slots)
        data = add_noise(clean, noise, xi=level * xi / np.linalg.norm(xi))
    else:
        noise = WhiteNoise(level, seed=int(rng.integers(1000)))
        data = add_noise(clean, noise, replicate=int(rng.integers(10)))
    constant = 10.0 ** rng.uniform(-1.0, 3.0)
    tau = float(rng.uniform(1.01, 5.0))
    budget = clean.norm() * 10.0 ** rng.uniform(-4.0, 0.5)
    return method, data, noise, grid, constant, tau, budget


def _where(choice, grid) -> str:
    if choice.flag:
        return choice.flag
    return {0: "first", grid.size - 1: "last"}.get(choice.index, "inside")


def _blocks_of(rows: int, data, grid) -> int:
    """_LEPSKII_BLOCK_BYTES that give Lepskii blocks of ``rows`` candidates."""
    return 8 * max(data.op.eigenvalues.size, grid.size) * rows


class _SteppedTikhonov:
    """Tikhonov's q times 1e150 from ``alpha_step`` on, so the largest |q|
    so far jumps past the overflow bound partway through the grid (the
    catalogue filters peak at the smallest alpha)."""

    c_q = 1.0

    def __init__(self, alpha_step: float):
        self.alpha_step = alpha_step

    def q(self, alpha, lam):
        return np.where(np.asarray(alpha) >= self.alpha_step, 1e150, 1.0) / (
            alpha + lam
        )


class TestLepskiiBlocks:
    """Candidates go in blocks; picks match the pairwise loop wherever
    the block boundaries fall."""

    @pytest.fixture()
    def rechecks(self, monkeypatch):
        """(candidate, pairs, verdict) of every direct recheck."""
        seen = []
        direct = param_choice._direct_exceeds

        def spy(q, i, js, weights, scale):
            out = direct(q, i, js, weights, scale)
            seen.append((int(i), [int(j) for j in js], out))
            return out

        monkeypatch.setattr(param_choice, "_direct_exceeds", spy)
        return seen

    @staticmethod
    def sobolev_case(n_levels=30, n_grid=40):
        x = sobolev_like(n_levels=n_levels)
        lam = x.op.slot_eigenvalues
        data = x.with_coefficients(np.sqrt(lam) * x.coefficients)
        return data, np.geomspace(1e-6, 0.5, n_grid), DeterministicNoise(1e-3)

    def test_picks_around_block_boundaries(self, monkeypatch):
        # blocks of p - 1, p and p + 1 candidates put the pick p at
        # block + 1, block and block - 1; 40 points in blocks of 64 are a
        # grid shorter than one block, blocks of 7 do not divide it
        data, grid, noise = self.sobolev_case()
        m = tikhonov()
        picks = set()
        for constant in np.geomspace(1e-4, 200.0, 14):
            want = lepskii_pairwise(m, data, noise, grid, constant)
            p = want.index
            picks.add(p)
            for rows in {p - 1, p, p + 1, 7, 64} - {-1, 0}:
                monkeypatch.setattr(
                    "specreg.param_choice._LEPSKII_BLOCK_BYTES",
                    _blocks_of(rows, data, grid),
                )
                assert choose_lepskii(m, data, noise, grid, constant) == want
        assert grid.size - 1 in picks and len(picks) >= 10

    def test_first_candidate_of_a_block_fails_by_the_gram_form(
        self, monkeypatch, rechecks
    ):
        # candidate p + 1 opens the second block and fails without a
        # direct recheck: some Gram distance is surely past its scale
        data, grid, noise = self.sobolev_case()
        m = tikhonov()
        want = lepskii_pairwise(m, data, noise, grid, 0.1)
        p = want.index
        assert 0 < p < grid.size - 1
        monkeypatch.setattr(
            "specreg.param_choice._LEPSKII_BLOCK_BYTES",
            _blocks_of(p + 1, data, grid),
        )
        assert choose_lepskii(m, data, noise, grid, 0.1) == want
        assert all(i <= p for i, _, _ in rechecks)

    @pytest.mark.parametrize(
        "method",
        [tikhonov(), showalter(), iterated_tikhonov(2), landweber(0.9)],
        ids=lambda m: m.name,
    )
    def test_first_candidate_of_a_block_fails_only_by_the_recheck(
        self, monkeypatch, rechecks, method
    ):
        # the tie case of TestLepskii: scale_0 one ulp below the loop's
        # distance of the pair (i, 0), which the Gram form cannot tell
        # apart, with candidate i the first of its block
        x = sobolev_like(n_levels=30)
        lam = x.op.slot_eigenvalues
        data = x.with_coefficients(np.sqrt(lam) * x.coefficients)
        grid = np.geomspace(0.2, 0.25, 12)
        noise = DeterministicNoise(0.5)
        base = noise.delta * np.sqrt(method.c_q / grid[0])
        weights = x.op.eigenvalues * data.level_mass
        q0 = method.q(grid[0], x.op.eigenvalues)
        found = 0
        for i in range(1, grid.size):
            qi = method.q(grid[i], x.op.eigenvalues)
            dist = math.sqrt(float(np.sum((qi - q0) ** 2 * weights)))
            for c in _neighbours(dist / base):
                if c * base != dist:
                    continue
                below = np.nextafter(c, 0.0)
                want = lepskii_pairwise(method, data, noise, grid, below)
                if want.index != i - 1:
                    continue
                monkeypatch.setattr(
                    "specreg.param_choice._LEPSKII_BLOCK_BYTES",
                    _blocks_of(i, data, grid),
                )
                rechecks.clear()
                assert choose_lepskii(method, data, noise, grid, below) == want
                assert (i, True) in {(k, out) for k, _, out in rechecks}
                found += 1
        assert found >= 1

    def test_overflow_guard_switches_on_inside_a_block(self, monkeypatch, rechecks):
        # |q| jumps past the overflow bound at candidate 13, inside the
        # block of candidates 8-15: from there on every pair goes to the
        # direct sum, before it the Gram form decides
        lam = 1.0 / np.arange(1, 21, dtype=float) ** 2
        op = SpectralOperator(lam, np.ones(lam.size, dtype=np.int64))
        data = SpectralElement(op, lam * np.arange(1, 21, dtype=float) ** -1.5)
        grid = np.geomspace(1e-3, 1.0, 30)
        m = _SteppedTikhonov(grid[13])
        noise = DeterministicNoise(1e-2)
        monkeypatch.setattr(
            "specreg.param_choice._LEPSKII_BLOCK_BYTES", _blocks_of(8, data, grid)
        )
        picks = set()
        for constant in [*np.geomspace(1e-3, 3.0, 8), *np.geomspace(1e150, 1e154, 8)]:
            rechecks.clear()
            got = choose_lepskii(m, data, noise, grid, constant)
            assert got == lepskii_pairwise(m, data, noise, grid, constant)
            picks.add(got.index)
            for i, js, _ in rechecks:
                assert i < 13 or js == list(range(i))
            if got.index >= 13:
                assert {i for i, _, _ in rechecks} >= set(range(13, got.index + 1))
        assert {12, 28, 29} <= picks and len(picks) >= 6

    @pytest.mark.parametrize("rows_bytes", [8, 8 * 40 * 5], ids=["one", "five+"])
    def test_random_cases_in_small_blocks(self, monkeypatch, rows_bytes):
        # random_rule_case has under 40 levels and 30 grid points, so the
        # default block holds the whole grid; these blocks hold one
        # candidate, and at least five
        monkeypatch.setattr("specreg.param_choice._LEPSKII_BLOCK_BYTES", rows_bytes)
        rng = np.random.default_rng(20160320)
        for _ in range(120):
            method, data, noise, grid, constant, _, _ = random_rule_case(rng)
            got = choose_lepskii(method, data, noise, grid, constant)
            assert got == lepskii_pairwise(method, data, noise, grid, constant)

    @pytest.mark.parametrize("rows", [1, 3, 5])
    def test_table_grows_across_blocks(self, monkeypatch, rows):
        # a one-row reservation grows to max(block end, twice the rows)
        monkeypatch.setattr("specreg.param_choice._Q_TABLE_BYTES", 8)
        data, grid, noise = self.sobolev_case()
        monkeypatch.setattr(
            "specreg.param_choice._LEPSKII_BLOCK_BYTES", _blocks_of(rows, data, grid)
        )
        m = tikhonov()
        for constant in np.geomspace(1e-4, 200.0, 8):
            want = lepskii_pairwise(m, data, noise, grid, constant)
            assert choose_lepskii(m, data, noise, grid, constant) == want


class TestAgainstLoopReferences:
    """Both rules pick exactly what the plain loops over grid points and
    pairs of grid points pick, on random fixtures of every shape."""

    N_CASES = 240

    def test_lepskii_matches_the_pairwise_loop(self):
        rng = np.random.default_rng(20160317)
        seen = set()
        for _ in range(self.N_CASES):
            method, data, noise, grid, constant, _, _ = random_rule_case(rng)
            got = choose_lepskii(method, data, noise, grid, constant)
            assert got == lepskii_pairwise(method, data, noise, grid, constant)
            seen.add(_where(got, grid))
        assert seen == {"first", "inside", "last", "degenerate_noise_scale"}

    def test_lepskii_growing_table_matches_the_pairwise_loop(self, monkeypatch):
        # a one-row reservation makes the q table double at rows 1, 2, 4, ...
        monkeypatch.setattr("specreg.param_choice._Q_TABLE_BYTES", 8)
        rng = np.random.default_rng(20160319)
        deepest = 0
        for _ in range(80):
            method, data, noise, grid, constant, _, _ = random_rule_case(rng)
            got = choose_lepskii(method, data, noise, grid, constant)
            assert got == lepskii_pairwise(method, data, noise, grid, constant)
            deepest = max(deepest, got.index)
        assert deepest >= 16

    @pytest.mark.parametrize(
        "method", [tikhonov(), iterated_tikhonov(2), showalter()],
        ids=lambda m: m.name,
    )
    def test_lepskii_overflow_guard_matches_the_pairwise_loop(self, method):
        # a level of 1e-150 under a grid that starts at 1e-160 gives q
        # entries near 1e150, whose squares times 4 L pass 1e300: every candidate goes to the direct sum, none to the Gram
        # form, and nothing overflows in either
        lam = np.append(1.0 / np.arange(1, 21, dtype=float) ** 2, 1e-150)
        coeff = np.arange(1, lam.size + 1, dtype=float) ** -1.5
        op = SpectralOperator(lam, np.ones(lam.size, dtype=np.int64))
        data = SpectralElement(op, np.sqrt(lam) * coeff)
        grid = np.concatenate(
            [np.geomspace(1e-160, 1e-100, 10), np.geomspace(1e-6, 0.1, 30)]
        )
        q_max = float(np.max(method.q(grid[0], lam)))
        assert 4.0 * lam.size * q_max**2 >= 1e300
        picks = set()
        for constant in (1e-3, 0.1, 1.0, 4.0, 100.0, 1e4):
            for delta in (1e-6, 1e-3, 0.1):
                noise = DeterministicNoise(delta)
                got = choose_lepskii(method, data, noise, grid, constant)
                assert got == lepskii_pairwise(method, data, noise, grid, constant)
                picks.add(got.index)
        assert len(picks) >= 5 and min(picks) < grid.size - 1

    def test_discrepancy_matches_the_top_down_scan(self):
        rng = np.random.default_rng(20160318)
        seen = set()
        for _ in range(self.N_CASES):
            method, data, _, grid, _, tau, budget = random_rule_case(rng)
            got = choose_discrepancy(method, data, budget, grid, tau)
            assert got == discrepancy_scan(method, data, budget, grid, tau)
            seen.add(_where(got, grid))
        assert seen == {"first", "inside", "last", "no_alpha_met_discrepancy"}

    def test_discrepancy_ties_with_slot_norms_match_the_scan(self):
        # budgets equal to a computed slot norm, one per grid point: each
        # tie must get the scan's verdict
        rng = np.random.default_rng(5)
        for _ in range(20):
            method, data, _, grid, _, _, _ = random_rule_case(rng)
            lam = data.op.slot_eigenvalues
            for a in grid:
                res = float(np.linalg.norm(method.r(a, lam) * data.coefficients))
                got = choose_discrepancy(method, data, res / 2.0, grid, 2.0)
                assert got == discrepancy_scan(method, data, res / 2.0, grid, 2.0)


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


def oracle_rule():
    """Baseline rule that minimizes the exact criterion using the truth."""

    def rule(method, data, noise, alphas, x_true=None):
        choice, _ = grid_inf_error(method, x_true, noise, alphas)
        return choice

    return rule


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

    def test_grid_inf_matches_the_plain_loop(self):
        rng = np.random.default_rng(20161018)
        methods = catalogue()
        mixed = one_row_blocks = many_row_blocks = 0
        for case in range(120):
            method = methods[case % len(methods)]
            x, grid, noise = random_oracle_case(rng, method)
            choice, value = grid_inf_error(method, x, noise, grid)
            want, want_value = grid_inf_error_loop(method, x, noise, grid)
            assert choice == want
            assert value == pytest.approx(want_value, rel=1e-13, abs=0.0)

            # every survivor of the row's blocks scores as it does alone
            b = bias(method, grid, x)
            p = propagation_norm(method, grid, x.op) * noise.delta
            alphas = grid[np.maximum(b, p) <= np.min(b + p)]
            rows = _worst_case_rows(method, alphas, x, noise.delta)
            alone = [worst_case_error(method, a, x, noise.delta) for a in alphas]
            assert rows.value.tolist() == [r.value for r in alone]
            assert rows.hard.tolist() == [r.hard_case for r in alone]
            per_block = max(1, _TABLE_BYTES // (8 * x.op.eigenvalues.size))
            one_row_blocks += per_block == 1
            many_row_blocks += per_block > 1 and alphas.size > per_block
            blocks = np.arange(alphas.size) // per_block
            mixed += any(
                0 < rows.hard[blocks == k].sum() < (blocks == k).sum()
                for k in range(blocks[-1] + 1)
            )
        assert mixed >= 15
        assert one_row_blocks >= 10 and many_row_blocks >= 10

    def test_grid_inf_white(self):
        x = sobolev_like(n_levels=40)
        grid = np.geomspace(1e-5, 0.5, 20)
        noise = WhiteNoise(epsilon=1e-3, seed=0)
        choice, val = grid_inf_error(tikhonov(), x, noise, grid)
        dense = [
            error_breakdown(tikhonov(), float(a), x, noise).total for a in grid
        ]
        assert val == pytest.approx(min(dense), rel=1e-12)

    @pytest.mark.parametrize("method", catalogue(), ids=lambda m: m.name)
    def test_grid_inf_white_from_passed_tables(self, method):
        # the unit noise table of white noise is sqrt(trace); passing it
        # and the bias table gives what the function builds itself
        x = sobolev_like(n_levels=40)
        grid = np.geomspace(1e-5, 0.5, 20)
        grid = grid[grid <= method.alpha_max]
        b = bias(method, grid, x)
        sd = np.sqrt(variance_trace(method, grid, x.op))
        for eps in (1e-1, 1e-3, 1e-6):
            noise = WhiteNoise(epsilon=eps, seed=0)
            own = grid_inf_error(method, x, noise, grid)
            passed = grid_inf_error(method, x, noise, grid, bias_arr=b, prop_arr=sd)
            assert passed == own


def _survivor_mask(method, grid, x, delta):
    """Which grid points the bracket keeps among the sandwich survivors."""
    b = bias(method, grid, x)
    p = propagation_norm(method, grid, x.op) * delta
    survivors = np.flatnonzero(np.maximum(b, p) <= np.min(b + p))
    lower, upper = _worst_case_brackets(method, grid[survivors], x, delta)
    keep = param_choice._may_win(
        np.fmax(*lower), np.fmin(*upper), x.op.eigenvalues.size, delta
    )
    mask = np.zeros(grid.size, dtype=bool)
    mask[survivors[keep]] = True
    return mask


class TestPrimalDualBracket:
    """Bounds of ``_worst_case_brackets`` and the drop rule ``_may_win``."""

    @given(
        st.integers(0, 5),
        st.integers(0, 10**6),
        st.floats(-12.0, math.log10(30.0)),
        st.sampled_from(["any", "near_hard", "hard"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_bracket_holds_at_both_trial_points(self, mi, seed, log_delta, kind):
        rng = np.random.default_rng(seed)
        method = catalogue()[mi]
        lam = np.unique(10.0 ** rng.uniform(-8.0, 0.0, int(rng.integers(1, 40))))[::-1]
        mult = rng.integers(1, 3, lam.size)
        level = np.repeat(np.arange(lam.size), mult)
        coef = rng.standard_normal(level.size) * lam[level] ** rng.uniform(0.0, 1.0)
        hi = min(0.99 * method.alpha_max, 10.0)
        alphas = np.geomspace(10.0 ** rng.uniform(-9.0, -3.0), hi, 8)
        delta = 10.0**log_delta
        if kind != "any":
            # no mass on the top group of one alpha; its hard case starts
            # at the budget the other levels absorb
            a = alphas[rng.integers(alphas.size)]
            d = np.abs(method.q(a, lam)) * np.sqrt(lam)
            coef[level == np.argmax(d)] = 0.0
            b = np.abs(method.r(a, lam)) * np.sqrt(np.bincount(level, coef**2))
            g = d.max() ** 2 - d**2
            inner = math.sqrt(np.sum((d * b)[g > 0] ** 2 / g[g > 0] ** 2))
            if inner > 0:
                shift = 10.0 ** -rng.uniform(1.0, 12.0)
                delta = inner * (1.0 - shift if kind == "near_hard" else 1.0 + shift)
        x = SpectralElement(SpectralOperator(lam, mult), coef)
        lower, upper = _worst_case_brackets(method, alphas, x, delta)
        m = 4.0 * (lam.size + 8) * np.finfo(float).eps
        for i, a in enumerate(alphas):
            value = worst_case_error(method, float(a), x, delta).value
            for k in range(2):
                if np.isfinite(lower[k, i]) and np.isfinite(upper[k, i]):
                    assert lower[k, i] * (1 - m) <= value <= upper[k, i] * (1 + m)

    def test_tied_rows_are_all_kept(self):
        # every alpha of one Landweber step count has the same r and q, so
        # its worst case ties with the others' bit for bit
        x = sobolev_like(n_levels=200)
        method = landweber(mu_step=0.9)
        grid = np.geomspace(1e-3, 0.5, 400)
        noise = DeterministicNoise(0.1)
        choice, value = grid_inf_error(method, x, noise, grid)
        assert (choice, value) == grid_inf_error_loop(method, x, noise, grid)
        tied = np.flatnonzero(iteration_count(grid) == iteration_count(choice.alpha))
        assert tied.size >= 2 and choice.index == tied[0]
        values = {worst_case_error(method, float(a), x, noise.delta).value for a in grid[tied]}
        assert values == {value}
        assert _survivor_mask(method, grid, x, noise.delta)[tied].all()

    def test_rows_one_ulp_apart_are_both_kept(self):
        v = 0.1234567890123
        bounds = np.array([v, np.nextafter(v, 1.0), v * (1 + 1e-9)])
        keep = param_choice._may_win(bounds, bounds, 30, 1e-3)
        assert keep.tolist() == [True, True, False]

    def test_nan_or_infinite_bound_keeps_its_row(self):
        lower = np.array([1.0, np.nan, np.inf, 5.0, 6.0, 0.0])
        upper = np.array([1.0, 0.5, np.inf, np.nan, 7.0, np.inf])
        keep = param_choice._may_win(lower, upper, 10, 1e-3)
        assert keep.tolist() == [True, True, True, True, False, True]
        # without a finite pair there is no best to compare with
        none = param_choice._may_win(np.array([np.nan, 3.0]), np.array([1.0, np.inf]), 10, 1e-3)
        assert none.all()
        # a budget whose square underflows to zero drops nothing
        assert param_choice._may_win(lower, upper, 10, 1e-170).all()

    def test_heat_grid_keeps_rows_with_nan_bounds(self):
        # the default grid reaches alpha ~ 1e-252, where the bounds of
        # most rows are NaN
        heat = backward_heat(1.0, 30, 1.0)
        method = showalter()
        grid = default_alpha_grid(heat.op, method)
        for delta in (1e-3, 1e-12):
            lower, upper = _worst_case_brackets(method, grid, heat.x, delta)
            lower, upper = np.fmax(*lower), np.fmin(*upper)
            bad = ~(np.isfinite(lower) & np.isfinite(upper))
            assert bad.sum() > grid.size // 2
            keep = param_choice._may_win(lower, upper, heat.op.eigenvalues.size, delta)
            assert keep[bad].all() and not keep.all()
            noise = DeterministicNoise(delta)
            want = grid_inf_error_loop(method, heat.x, noise, grid)
            assert grid_inf_error(method, heat.x, noise, grid) == want
