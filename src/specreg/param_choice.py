"""Parameter choice rules over a finite alpha grid and their evaluation.

Every rule returns an AlphaChoice pinned to a grid point.  The
quasioptimality protocol hands the rule one seeded data draw and scores
the choice against the grid infimum of the matching error criterion:
exact worst case for deterministic noise, exact root mean squared error
for white noise.  An oracle baseline that minimizes the criterion itself
scores ratio 1 by construction.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import DomainError, OutOfRangeError
from .filters import FilterMethod
from .index_functions import IndexFunction, theta_inverse
from .regularize import (
    _worst_case_brackets,
    _worst_case_rows,
    bias,
    error_breakdown,
    propagation_norm,
    variance_trace,
    worst_case_error,
)
from .spectral import (
    DeterministicNoise,
    SpectralElement,
    WhiteNoise,
    add_noise,
)

__all__ = [
    "AlphaChoice",
    "choose_a_priori",
    "choose_discrepancy",
    "choose_lepskii",
    "delta_set",
    "DeltaSetReport",
    "grid_inf_error",
    "quasioptimality_ratio",
    "QuasiOptReport",
    "a_priori_rule",
    "discrepancy_rule",
    "lepskii_rule",
]

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).smallest_subnormal)
# the Lepskii q table is reserved up to this size at once
_Q_TABLE_BYTES = 16 * 1024 * 1024
# bytes of one (candidate block x level) Lepskii table: 32 candidates at
# 3000 levels (on a 2-core x86 box, blocks of 16 cost about the same,
# blocks of 48 and 64 more)
_LEPSKII_BLOCK_BYTES = 768 * 1024


@dataclasses.dataclass(frozen=True)
class AlphaChoice:
    alpha: float
    index: int
    flag: str = ""

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _ascending(alphas) -> np.ndarray:
    a = np.asarray(alphas, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise ValueError("alpha grid must be a nonempty 1-d array")
    if np.any(a <= 0) or np.any(np.diff(a) <= 0):
        raise ValueError("alpha grid must be positive and strictly ascending")
    return a


def _snap_log(alphas: np.ndarray, target: float) -> int:
    return int(np.argmin(np.abs(np.log(alphas) - math.log(target))))


def choose_a_priori(
    kappa: IndexFunction, delta: float, alphas
) -> AlphaChoice:
    """Solve sqrt(alpha) kappa(alpha) = delta, snap to the nearest grid
    point in log distance.  Out-of-range budgets clamp to the grid edge."""
    a = _ascending(alphas)
    if delta <= 0:
        raise DomainError("a priori choice needs delta > 0")
    try:
        ideal = theta_inverse(kappa, delta)
    except OutOfRangeError:
        lo_val = math.sqrt(a[0]) * kappa(a[0])
        if delta < lo_val:
            return AlphaChoice(float(a[0]), 0, "clamped_low")
        return AlphaChoice(float(a[-1]), a.size - 1, "clamped_high")
    i = _snap_log(a, ideal)
    flag = ""
    if ideal < a[0]:
        flag = "clamped_low"
    elif ideal > a[-1]:
        flag = "clamped_high"
    return AlphaChoice(float(a[i]), i, flag)


def choose_discrepancy(
    method: FilterMethod,
    data: SpectralElement,
    delta: float,
    alphas,
    tau: float = 2.0,
) -> AlphaChoice:
    """Largest grid alpha whose data residual ||r_alpha(T T*) y|| stays
    within tau * delta; if even the smallest alpha overshoots the budget
    the choice is flagged.

    The residual is nondecreasing in alpha, so the grid index is found by
    bisection: O(log G) slot norms ||r_alpha(lam) y|| on a grid of G points
    instead of up to G in a top-down scan, each computed as the scan
    computes it, so every grid point the bisection tests gets the scan's
    verdict.  Bisection still trusts a monotonicity that holds exactly but
    not in rounded arithmetic: an ulp-level dip of the computed norms
    across the budget could give a different index than a top-down scan.
    """
    if not tau > 1:
        raise DomainError("tau must exceed 1")
    a = _ascending(alphas)
    threshold = tau * delta
    lam, y = data.op.slot_eigenvalues, data.coefficients

    def within(i: int) -> bool:
        return float(np.linalg.norm(method.r(a[i], lam) * y)) <= threshold

    lo, hi = -1, a.size  # the budget is met at lo (if >= 0), missed at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if within(mid):
            lo = mid
        else:
            hi = mid
    if lo < 0:
        return AlphaChoice(float(a[0]), 0, "no_alpha_met_discrepancy")
    return AlphaChoice(float(a[lo]), lo)


def _lepskii_scale(
    method: FilterMethod,
    noise: DeterministicNoise | WhiteNoise,
    data: SpectralElement,
    alphas: np.ndarray,
) -> np.ndarray:
    if isinstance(noise, DeterministicNoise):
        return noise.delta * np.sqrt(method.c_q / alphas)
    if isinstance(noise, WhiteNoise):
        return noise.epsilon * np.sqrt(variance_trace(method, alphas, data.op))
    raise TypeError(f"unsupported noise model {type(noise).__name__}")


def _direct_exceeds(q, i, js, weights, scale) -> bool:
    """Whether the direct sum puts some pair (i, j), j in js, past scale_j."""
    q_i = q[i]
    return any(
        math.sqrt(float(np.sum((q_i - q[j]) ** 2 * weights))) > scale[j]
        for j in js
    )


def choose_lepskii(
    method: FilterMethod,
    data: SpectralElement,
    noise: DeterministicNoise | WhiteNoise,
    alphas,
    constant: float = 4.0,
) -> AlphaChoice:
    """Balancing choice: the largest grid alpha whose reconstruction stays
    within constant * s(alpha') of every reconstruction at smaller alpha',
    where s is the noise propagation scale of the respective model.

    The pick is that of the pairwise loop: candidate i passes when
    sqrt(sum_l (q_i - q_j)^2 w_l) <= scale_j for every j < i, with q_i
    the q row of alpha_i over the L levels and w_l = lam_l times the
    level mass of the data, and the scan stops at the first candidate
    that fails.  Candidates go in blocks of about ``_LEPSKII_BLOCK_BYTES``
    per (block x L) table: one broadcast q call fills the block's rows
    of the q table, and one BLAS matrix-matrix product
    G = Q[:i1] @ (w Q_blk)^T gives the weighted Gram entries of every
    pair j < i of the block at once, so the accepted rows are read once
    per block, O(G^2 L) flops at worst on a grid of G points.  The
    distances D_j + D_i - 2 G_ji of that Gram form, with D_j = q_j .
    (w q_j), cancel badly for close rows, so they only sort the pairs:
    the rounding error of the Gram form and of the direct sum, in any
    summation order, stays below 4 (L + 2) eps (D_i + D_j + 2 |G_ji|),
    plus half a subnormal per product that underflows; 4 eps scale_j^2
    more covers rounding the square and the root.  The first candidate
    of a block with a pair surely past scale_j ends the scan.  Before
    it, a pair whose Gram distance lies within that margin of
    scale_j^2, and every pair of a candidate whose entries could
    overflow, is decided again by the direct sum in candidate order, so
    the pick equals the loop's bit for bit.  Gram values only decide;
    they never enter a report.
    """
    a = _ascending(alphas)
    lam = data.op.eigenvalues
    weights = lam * data.level_mass
    scale = constant * _lepskii_scale(method, noise, data, a)
    if not np.all(scale > 0):
        return AlphaChoice(float(a[0]), 0, "degenerate_noise_scale")
    scale_sq = scale**2
    n = lam.size + 2
    rel = 4.0 * n * _EPS
    w_max = float(np.max(weights))
    # the block's Gram temporaries are (rows so far x block), so the block
    # shrinks with the grid as well as with the levels
    block = max(1, _LEPSKII_BLOCK_BYTES // (8 * max(lam.size, a.size)))
    wq = np.empty((min(block, a.size), lam.size))
    # rows past the block of the first failing candidate are never
    # written, so they never become resident; past _Q_TABLE_BYTES the
    # table is grown by doubling instead of being reserved at once
    q = np.empty((min(a.size, max(1, _Q_TABLE_BYTES // (8 * lam.size))), lam.size))
    gram_diag = np.empty(a.size)
    q_max = 0.0
    for i0 in range(0, a.size, block):
        i1 = min(a.size, i0 + block)
        if i1 > q.shape[0]:
            grown = np.empty((min(a.size, max(i1, 2 * q.shape[0])), lam.size))
            grown[:i0] = q[:i0]
            q = grown
        q_blk = q[i0:i1]
        q_blk[:] = method.q(a[i0:i1, None], lam)
        w_blk = np.multiply(q_blk, weights, out=wq[: i1 - i0])
        cols = np.arange(i1 - i0)
        with np.errstate(over="ignore", invalid="ignore"):
            gram = q[:i1] @ w_blk.T
            gram_diag[i0:i1] = gram[i0 + cols, cols]
            # running max of |q| per candidate, NaN entries skipped
            row_max = np.fmax(np.max(q_blk, axis=1), -np.min(q_blk, axis=1))
            q_top = np.fmax.accumulate(np.fmax(row_max, q_max))
            q_max = float(q_top[-1])
            d_i = gram_diag[i0:i1]
            d_j = gram_diag[:i1, None]
            s2 = scale_sq[:i1, None]
            dist = d_j + d_i - 2.0 * gram
            margin = (
                rel * (d_j + d_i + 2.0 * np.abs(gram))
                + 4.0 * _EPS * s2
                + n * (8.0 + 4.0 * q_top + w_max) * _TINY
            )
            fails = dist - margin > s2
            unsure = ~(dist + margin < s2)
            # below this bound no sum, product or square of either form
            # overflows; above it every pair goes to the direct sum
            guarded = n * (4.0 * q_top * q_top) * (1.0 + w_max) < 1e300
        pairs = np.arange(i1)[:, None] < i0 + cols  # j < i
        fails &= pairs & guarded
        unsure = np.where(guarded, unsure & pairs, pairs)
        failed = np.flatnonzero(np.any(fails, axis=0))
        stop = int(failed[0]) if failed.size else i1 - i0
        for c in np.flatnonzero(np.any(unsure[:, :stop], axis=0)):
            js = np.flatnonzero(unsure[:, c])
            if _direct_exceeds(q, i0 + c, js, weights, scale):
                stop = int(c)
                break
        if stop < i1 - i0:
            best = i0 + stop - 1
            return AlphaChoice(float(a[best]), best)
    return AlphaChoice(float(a[-1]), a.size - 1)


@dataclasses.dataclass(frozen=True)
class DeltaSetReport:
    alphas: np.ndarray
    deltas: np.ndarray
    gamma_hat: float

    def to_dict(self) -> dict:
        return {
            "alphas": self.alphas.tolist(),
            "deltas": self.deltas.tolist(),
            "gamma_hat": self.gamma_hat,
        }


def delta_set(method: FilterMethod, x: SpectralElement, alphas) -> DeltaSetReport:
    """Noise levels delta(alpha) = bias(alpha) / ||R_alpha|| at which each
    grid alpha balances its two error terms, with the largest consecutive
    ratio of the sorted levels as a grid density certificate."""
    alphas = _ascending(alphas)
    prop = propagation_norm(method, alphas, x.op)
    if np.any(prop == 0):
        raise DomainError("propagation norm vanished; grid too coarse")
    deltas = bias(method, alphas, x) / prop
    s = np.sort(deltas)
    if np.any(s <= 0):
        raise DomainError("bias vanished on the grid; delta set degenerate")
    gamma_hat = float(np.max(s[1:] / s[:-1])) if s.size > 1 else 1.0
    return DeltaSetReport(alphas=alphas, deltas=deltas, gamma_hat=gamma_hat)


def _may_win(lower, upper, n_levels: int, delta: float) -> np.ndarray:
    """Mask of the rows whose bracket lower <= worst case <= upper leaves
    them a chance to be the first row of least solved value.  A row is
    dropped when lower (1 - m) > best (1 + m), best the least finite upper
    bound, with

        m = 4 (L + 8) eps + (L + 2) s / delta^2,  L levels, s = 2^-1074.

    Count an error of eps per rounded operation.  U and L sum L + 1
    nonnegative terms of at most four operations each, then scale and
    take a root: (L + 8) eps each.  Rounding g = d_max^2 - d^2 by 2 eps
    d_max^2 moves the worst case by 2 eps.  As |d ln v / d ln sigma| <= 1
    for the solved value v = theta ||b / (sigma + g)||, a root within
    4 eps (the bracket width or Newton's stop; 8 eps lets the slope vary
    over that last step) adds 8 eps, and v's own rounding (L + 6) eps:
    3L + 32 in all.  A product of U^2 / theta >= delta^2 that underflows
    loses at most s: the second term.  So a dropped row solves strictly
    above the row of least upper bound and is never a least row.  A NaN
    or infinite bound keeps its row.
    """
    finite = np.isfinite(lower) & np.isfinite(upper)
    best = np.min(upper, where=finite, initial=np.inf)
    m = 4.0 * (n_levels + 8) * _EPS + (n_levels + 2) * _TINY / float(delta) / float(delta)
    with np.errstate(invalid="ignore"):
        return ~(finite & (lower * (1.0 - m) > best * (1.0 + m)))


def grid_inf_error(
    method: FilterMethod,
    x: SpectralElement,
    noise: DeterministicNoise | WhiteNoise,
    alphas,
    bias_arr=None,
    prop_arr=None,
):
    """Infimum over the grid of the exact error criterion.

    ``bias_arr`` and ``prop_arr`` are the grid's bias and unit noise
    tables, built here when not given: the propagation norm ||R_alpha||
    for deterministic noise, sqrt(trace(R_alpha R_alpha*)) for white
    noise, so the noise term is the level times the unit table.  White
    noise takes the least root mean squared error directly.
    Deterministic grids are pruned with the sandwich
    max(bias, ||R|| delta) <= worst case <= bias + ||R|| delta,
    then with the primal-dual bracket of two secular evaluations per
    survivor (``_worst_case_brackets``, dropped by ``_may_win``), before
    the exact problem is solved on the rows left, all of them in one
    call of the row kernel of ``regularize``: their secular equations
    are solved together in blocks of rows, so the per-solve bookkeeping
    is paid once per block.  The first row of least value wins, as it
    would among all survivors, and its value is reported through
    ``worst_case_error``, which gives that row the same value bit for
    bit.  Returns (AlphaChoice, value).
    """
    alphas = _ascending(alphas)
    white = isinstance(noise, WhiteNoise)
    if not white and not isinstance(noise, DeterministicNoise):
        raise TypeError(f"unsupported noise model {type(noise).__name__}")
    if bias_arr is None or prop_arr is None:
        bias_arr = bias(method, alphas, x)
        if white:
            prop_arr = np.sqrt(variance_trace(method, alphas, x.op))
        else:
            prop_arr = propagation_norm(method, alphas, x.op)
    if white:
        vals = np.hypot(bias_arr, noise.epsilon * prop_arr)
        i = int(np.argmin(vals))
        return AlphaChoice(float(alphas[i]), i), float(vals[i])
    delta = noise.delta
    # a bound past the double range is inf, which keeps its row
    with np.errstate(over="ignore"):
        lb = np.maximum(bias_arr, prop_arr * delta)
        ub = bias_arr + prop_arr * delta
    cutoff = float(np.min(ub))
    candidates = np.flatnonzero(lb <= cutoff)
    if delta > 0:
        lower, upper = _worst_case_brackets(method, alphas[candidates], x, delta)
        keep = _may_win(np.fmax(*lower), np.fmin(*upper), x.op.eigenvalues.size, delta)
        candidates = candidates[keep]
    values = _worst_case_rows(method, alphas[candidates], x, delta).value
    best = int(candidates[np.argmin(values)])
    alpha = float(alphas[best])
    return AlphaChoice(alpha, best), worst_case_error(method, alpha, x, delta).value


@dataclasses.dataclass(frozen=True)
class QuasiOptReport:
    ratio: float
    chosen: AlphaChoice
    achieved: float
    best: AlphaChoice
    best_value: float

    def to_dict(self) -> dict:
        return {
            "ratio": self.ratio,
            "chosen": self.chosen.to_dict(),
            "achieved": self.achieved,
            "best": self.best.to_dict(),
            "best_value": self.best_value,
        }


def quasioptimality_ratio(
    rule,
    method: FilterMethod,
    x: SpectralElement,
    noise: DeterministicNoise | WhiteNoise,
    alphas,
    replicate: int = 0,
) -> QuasiOptReport:
    """Score a rule against the grid infimum of the exact criterion.

    The rule receives one seeded data draw: a white noise replicate, or for
    the deterministic model a reproducible direction on the delta sphere
    (the adversarial perturbation enters only in the scoring).  x_true is
    forwarded for oracle baselines; honest rules must ignore it.
    """
    a = _ascending(alphas)
    lam = x.op.slot_eigenvalues
    clean = x.with_coefficients(np.sqrt(lam) * x.coefficients)
    data = add_noise(clean, noise, replicate=replicate)
    choice = rule(
        method=method, data=data, noise=noise, alphas=a, x_true=x
    )
    achieved = error_breakdown(method, choice.alpha, x, noise).total
    best, best_value = grid_inf_error(method, x, noise, a)
    return QuasiOptReport(
        ratio=achieved / best_value,
        chosen=choice,
        achieved=achieved,
        best=best,
        best_value=best_value,
    )


def a_priori_rule(kappa: IndexFunction):
    """Rule factory: a priori choice for the given smoothness index."""

    def rule(method, data, noise, alphas, x_true=None):
        if isinstance(noise, DeterministicNoise):
            budget = noise.delta
        else:
            # effective budget for the stochastic model: epsilon itself
            budget = noise.epsilon
        return choose_a_priori(kappa, budget, alphas)

    return rule


def discrepancy_rule(tau: float = 2.0):
    def rule(method, data, noise, alphas, x_true=None):
        if not isinstance(noise, DeterministicNoise):
            raise TypeError("discrepancy rule needs a deterministic budget")
        return choose_discrepancy(method, data, noise.delta, alphas, tau=tau)

    return rule


def lepskii_rule(constant: float = 4.0):
    def rule(method, data, noise, alphas, x_true=None):
        return choose_lepskii(method, data, noise, alphas, constant=constant)

    return rule
