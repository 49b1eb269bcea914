"""Reconstruction, error split, and exact worst-case noise analysis.

In the diagonal model the data element has image-side coefficients
y_j = sqrt(lam_j) x_j + eta_j and the regularized reconstruction is
x_hat_j = q_alpha(lam_j) sqrt(lam_j) y_j.  The error splits into

    x_hat - x = -r_alpha(Lam) x + D eta,   D = diag(q_alpha sqrt(lam)),

so the worst deterministic error over ||eta|| <= delta is a quadratic
maximization over a ball.  Its maximizer solves the secular equation

    sum_j c_j^2 / (sigma + g_j)^2 = delta^2,

with c_j = d_j b_j, b = r x, g_j = d_max^2 - d_j^2 and theta =
sigma + d_max^2 the KKT multiplier.  It is solved in the form
1/sqrt(f(sigma)) = 1/delta, concave and increasing in sigma, by
safeguarded Newton steps of ``roots.bracketed_roots`` with bisection as
the fallback; when every c_j on the top group vanishes and the remaining
mass cannot absorb the full budget the multiplier sticks at theta =
d_max^2 (hard case) and the leftover noise norm is padded onto a top
slot.  The worst case works on eigenvalue levels only: r and q are
evaluated once per level, the level norms of b come from the level sums
of x^2, and slot vectors are built only for the witness.  One secular
step therefore costs O(#levels) regardless of multiplicity.

The grid oracle solves a row at a time: ``_worst_case_rows`` takes every
alpha of a row at one delta and builds r, q, c and g as (alpha x level)
tables in blocks of about ``_TABLE_BYTES`` each.  The hard case is a row
mask, and the other rows of a block are solved as one array of brackets,
so the numpy bookkeeping of a Newton step is paid once per block, not
once per alpha: the 18-level rows of a backward heat sweep take one
block each, while rows of thousands of levels keep one alpha per block.
``worst_case_error`` is the one-alpha case, and a row of a block gets
the results it gets alone, bit for bit.  ``_worst_case_brackets``
bounds the same rows from two secular evaluations each, so the grid
oracle solves to the end only the rows that can still win.

``bias``, ``propagation_norm`` and ``variance_trace`` take a scalar alpha
or a 1-d alpha grid; a grid is evaluated as (alpha x level) filter
tables in alpha blocks of fixed byte size.  ``mse_monte_carlo`` takes
one row or a 1-d alpha of rows, all scored from one noise draw per
replicate.
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .filters import _TABLE_BYTES, FilterMethod, _q_dispatch, alpha_table
from .spectral import (
    DeterministicNoise,
    SpectralElement,
    SpectralOperator,
    WhiteNoise,
    noise_generator,
)
from .roots import bracketed_roots

_TINY = float(np.finfo(float).tiny)

__all__ = [
    "bias",
    "propagation_norm",
    "variance_trace",
    "worst_case_error",
    "WorstCaseResult",
    "error_breakdown",
    "ErrorBreakdown",
    "mse_monte_carlo",
    "MonteCarloEstimate",
]


def bias(method: FilterMethod, alpha, x: SpectralElement):
    """||r_alpha(T*T) x||, the noise-free reconstruction error.

    Summed over levels: ||r x||^2 = sum_l r(alpha, lam_l)^2 m_l with m_l
    the mass of x on level l.  A scalar alpha gives a float, a 1-d alpha
    grid one value per alpha.
    """
    lam, mass = x.op.eigenvalues, x.level_mass
    return alpha_table(
        alpha,
        lam.size,
        lambda a: np.sqrt(np.sum(method.r(a, lam) ** 2 * mass, axis=1)),
    )


def propagation_norm(method: FilterMethod, alpha, op: SpectralOperator):
    """Operator norm of the reconstruction map R_alpha = q_alpha(T*T) T*.

    A scalar alpha gives a float, a 1-d alpha grid one value per alpha.
    """
    alpha, lam = method._arguments(alpha, op.eigenvalues)
    root_lam = np.sqrt(lam)

    def row_max(a):
        # the table was checked as a whole, so blocks go to the dispatch
        q = _q_dispatch(method, a, lam)
        q *= root_lam
        return np.max(np.abs(q, out=q), axis=1)

    return alpha_table(alpha, lam.size, row_max)


def variance_trace(method: FilterMethod, alpha, op: SpectralOperator):
    """trace(R_alpha R_alpha*) = sum over slots of q^2 lam.

    A scalar alpha gives a float, a 1-d alpha grid one value per alpha.
    """
    lam, mult = op.eigenvalues, op.multiplicities
    return alpha_table(
        alpha,
        lam.size,
        lambda a: np.sum(mult * (method.q(a, lam) ** 2 * lam), axis=1),
    )


@dataclasses.dataclass(frozen=True)
class WorstCaseResult:
    value: float
    bias: float
    propagation: float
    delta: float
    theta: float
    hard_case: bool
    witness: SpectralElement | None = None

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "bias": self.bias,
            "propagation": self.propagation,
            "delta": self.delta,
            "theta": self.theta,
            "hard_case": self.hard_case,
        }


def _row_norms(v) -> np.ndarray:
    """Euclidean norm along the last axis of a nonnegative array, its
    squares scaled so that they neither overflow nor underflow."""
    top = np.max(v, axis=-1, initial=0.0)
    scaled = v / np.where(top > 0.0, top, 1.0)[..., None]
    return top * np.sqrt(np.sum(np.square(scaled, out=scaled), axis=-1))


def _masked_rows(a, rows):
    """The rows of ``a`` selected by the mask ``rows``; ``a`` itself when
    every row is."""
    return a if rows.all() else a[rows]


def _secular_ends(c, g, delta):
    """Bracket ends of the secular root per row of c and g: f <= ||c||^2 /
    sigma^2 bounds it above by ||c|| / delta; a top group (g == 0) with
    mass c_top bounds it below by c_top / delta, otherwise the smallest
    normal double does."""
    c_top = _row_norms(np.where(g == 0.0, c, 0.0))
    return np.where(c_top > 0.0, c_top / delta, _TINY), _row_norms(c) / delta


def _secular_f(s, c, g, inv, u_sq):
    """f(s) = sum (c/(s+g))^2 along the last axis, leaving 1/(s+g) in
    ``inv`` and the terms in ``u_sq``."""
    np.add(s[..., None], g, out=inv)
    np.divide(1.0, inv, out=inv)
    np.multiply(c, inv, out=u_sq)
    np.square(u_sq, out=u_sq)
    return u_sq.sum(axis=-1)


def _secular_slope(f, inv, u_sq, w):
    """phi' = f^{-3/2} sum c^2/(s+g)^3 of phi = 1/sqrt(f), from the
    buffers ``_secular_f`` left at s."""
    np.multiply(u_sq, inv, out=w)
    return w.sum(axis=-1) / (f * np.sqrt(f))


def _solve_secular(c, g, delta):
    """Roots of f(sigma) = sum (c/(sigma+g))^2 = delta^2 with f decreasing,
    one per row of the (rows x levels) arrays c and g.

    Requires f(0+) > delta^2 on every row, i.e. either some c with g == 0
    or enough mass near the top.  Returns (sigma, steps): sigma > 0 and
    the Newton steps of each row.  The bracket is ``_secular_ends``.  The
    equation is solved as phi(sigma) = 1/sqrt(f(sigma)) = 1/delta: phi is
    increasing and concave (Hebden 1973; More & Sorensen 1983), so Newton
    steps from the lower bracket end rise monotonically to the root.
    Every row is one bracket of a single ``bracketed_roots`` call, and phi
    and phi' are taken on the whole block in three level buffers that
    every trial point reuses.
    """
    lo, hi = _secular_ends(c, g, delta)
    if c.shape[0] == 1:
        # one row is solved on 1-d levels with a 0-d bracket, whose
        # arithmetic runs on numpy scalars, cheaper than 1-element arrays
        c, g, lo, hi = c[0], g[0], lo[0], hi[0]
    inv, u_sq, w = (np.empty_like(c) for _ in range(3))
    # phi and its slope are taken at each trial point in turn; both read
    # the buffers and f of the last point
    last = [None, None]

    def f_at(s):
        if last[0] is not s:
            last[:] = s, _secular_f(s, c, g, inv, u_sq)
        return last[1]

    def phi(s):
        return 1.0 / np.sqrt(f_at(s))

    def phi_slope(s):
        return _secular_slope(f_at(s), inv, u_sq, w)

    # an overflowing f reads as phi = 0, far below the root; its slope (0
    # or nan) gives no Newton point inside the bracket, so the midpoint
    # is tried next
    with np.errstate(over="ignore", invalid="ignore"):
        sigma, steps = bracketed_roots(
            phi, 1.0 / delta, lo, hi, increasing=True, slope=phi_slope
        )
    return np.reshape(sigma, -1), np.reshape(steps, -1)


class _Rows(NamedTuple):
    """Worst case per alpha of a row: value, bias, d_max = ||R_alpha||,
    the secular root sigma (0 in the hard case and without noise), the
    hard-case flag and the squared noise norm padded onto a top slot."""

    value: np.ndarray
    bias: np.ndarray
    d_max: np.ndarray
    sigma: np.ndarray
    hard: np.ndarray
    pad_sq: np.ndarray


def _blocks(method: FilterMethod, alphas, x: SpectralElement, delta):
    """Level tables of the 1-d array ``alphas`` in blocks of rows whose
    (rows x levels) tables hold about ``_TABLE_BYTES`` each, as in
    ``alpha_table``.  Yields per block its slice of rows, d = |q|
    sqrt(lambda), the level norms b of r x, the bias ||b||, d_max = max d,
    and for the secular equation c = d b and the gaps g with their
    top-group mask, or three None when no row of the block has noise."""
    lam, mass = x.op.eigenvalues, x.level_mass
    root_lam = np.sqrt(lam)
    rows = max(1, _TABLE_BYTES // (8 * lam.size))
    for start in range(0, alphas.size, rows):
        blk = slice(start, start + rows)
        col = alphas[blk, None]
        d = method.q(col, lam)
        np.abs(d, out=d)
        d *= root_lam
        # squared level norms of b = r x; as in a sum of squared slot
        # values, a b whose square underflows reads zero, so such a top
        # group takes the hard-case branch of the kernel
        b = method.r(col, lam)
        np.square(b, out=b)
        b *= mass
        bias_val = np.sqrt(np.sum(b, axis=1))
        np.sqrt(b, out=b)
        d_max = np.max(d, axis=1)
        c = g = top = None
        if delta > 0.0 and np.any(d_max > 0.0):
            # level norms of c = d b; sums over them are of squared ratios,
            # so no square of theta, sigma or g overflows at tiny alpha
            c = d * b
            # g = d_max^2 - d^2, set to exactly 0 on the top group, where
            # it vanishes to 1e-30 relative
            top_sq = np.square(d_max)[:, None]
            g = np.square(d)
            np.subtract(top_sq, g, out=g)
            top = g <= 1e-30 * top_sq
            np.copyto(g, 0.0, where=top)
        yield blk, d, b, bias_val, d_max, c, g, top


def _worst_case_rows(method: FilterMethod, alphas, x: SpectralElement, delta):
    """Worst case at every alpha of the 1-d array ``alphas``, one delta.

    Rows go in ``_blocks``: r, q, c and g are built once per block, the
    hard case is a row mask, and the other rows of the block are solved
    together by ``_solve_secular``.  A row's results do not depend on
    which rows share its block.
    """
    if delta < 0:
        raise DomainError("delta must be nonnegative")
    delta_sq = delta * delta
    n = alphas.size
    out = _Rows(
        value=np.empty(n),
        bias=np.empty(n),
        d_max=np.empty(n),
        sigma=np.zeros(n),
        hard=np.zeros(n, dtype=bool),
        pad_sq=np.zeros(n),
    )
    for blk, d, b, bias_val, d_max, c, g, top in _blocks(method, alphas, x, delta):
        out.bias[blk], out.d_max[blk] = bias_val, d_max
        out.value[blk] = bias_val
        if c is None:
            continue
        noisy = d_max > 0.0
        # without mass on the top group the multiplier may stick at
        # theta = d_max^2: the hard case, when the rest of the mass cannot
        # absorb the whole budget
        bare = noisy & ~np.any(top & (c != 0.0), axis=1)
        s_lim = np.zeros(d_max.size)
        if bare.any():
            c_in, g_in = _masked_rows(c, bare), _masked_rows(g, bare)
            with np.errstate(divide="ignore", invalid="ignore"):
                terms = np.where(g_in > 0, c_in / g_in, 0.0)
            s_lim[bare] = np.sum(np.square(terms, out=terms), axis=1)
        hard = bare & (s_lim <= delta_sq)
        solve = noisy & ~hard
        sigma = np.zeros(d_max.size)
        if solve.any():
            sigma[solve], _ = _solve_secular(
                _masked_rows(c, solve), _masked_rows(g, solve), delta
            )

        # top numerators vanish with the denominator in the hard case; sum
        # the interior only (rows without noise are dropped below)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.divide(b, np.add(sigma[:, None], g, out=g), out=b)
        if not solve.all():
            np.copyto(ratio, 0.0, where=top & ~solve[:, None])
        value = (sigma + np.square(d_max)) * _row_norms(ratio)
        pad_sq = np.where(hard, delta_sq - s_lim, 0.0)
        if hard.any():
            value = np.where(hard, np.hypot(value, d_max * np.sqrt(pad_sq)), value)
        out.value[blk] = np.where(noisy, value, bias_val)
        out.sigma[blk], out.hard[blk], out.pad_sq[blk] = sigma, hard, pad_sq
    return out


def _worst_case_brackets(method: FilterMethod, alphas, x: SpectralElement, delta):
    """Bounds lower <= worst case <= upper at each alpha of the 1-d array
    ``alphas`` and one delta > 0, from two secular evaluations.

    With the level arrays b, d, g = d_max^2 - d^2 and c = d b of
    ``_blocks``, any sigma > 0 gives theta = sigma + d_max^2 > d^2 and two
    bounds (More & Sorensen 1983; Polik & Terlaky 2007): the Lagrangian
    dual value U = sqrt(theta (delta^2 + sum b^2 / (sigma + g))), and the
    value L = ||b (1 + s d^2 / (sigma + g))|| of the feasible noise
    s d b / (sigma + g), s = min(1, delta / sqrt(f(sigma))).  Both meet
    the worst case at the secular root.  The trial points are the first
    two of ``_solve_secular``: its lower bracket end sigma0, then the
    Newton point of sigma0, or the geometric midpoint when that point
    leaves the bracket.  Each takes one pass of 1/(sigma + g), shared by
    f, its slope, L and U.

    Returns (lower, upper), each (2, alphas.size) with row k at trial
    point k.  Rows with d_max = 0 or f(sigma0) <= delta^2, the hard case
    among them, are NaN: the kernel solves them in closed form.
    """
    delta_sq = delta * delta
    lower, upper = np.full((2, alphas.size), np.nan), np.full((2, alphas.size), np.nan)
    for blk, d, b, _, d_max, c, g, _ in _blocks(method, alphas, x, delta):
        if c is None:
            continue
        sigma, hi = _secular_ends(c, g, delta)
        inv, u_sq, w = (np.empty_like(c) for _ in range(3))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for k in range(2):
                f = _secular_f(sigma, c, g, inv, u_sq)
                if k == 0:
                    bracketed = (d_max > 0.0) & (f > delta_sq)
                    slope = _secular_slope(f, inv, u_sq, w)
                    newton = sigma - (1.0 / np.sqrt(f) - 1.0 / delta) / slope
                    inside = (sigma < newton) & (newton < hi)
                    following = np.where(inside, newton, np.sqrt(sigma) * np.sqrt(hi))
                # U: theta (delta^2 + sum b^2 / (sigma + g)); L: the value
                # at the scaled noise s d b / (sigma + g)
                np.multiply(b, inv, out=w)
                w *= b
                up = np.sqrt((sigma + np.square(d_max)) * (delta_sq + np.sum(w, axis=1)))
                np.multiply(c, inv, out=w)
                w *= d
                w *= np.minimum(1.0, delta / np.sqrt(f))[:, None]
                w += b
                low = np.sqrt(np.sum(np.square(w, out=w), axis=1))
                lower[k, blk] = np.where(bracketed, low, np.nan)
                upper[k, blk] = np.where(bracketed, up, np.nan)
                sigma = following
    return lower, upper


def worst_case_error(
    method: FilterMethod,
    alpha: float,
    x: SpectralElement,
    delta: float,
    want_witness: bool = False,
) -> WorstCaseResult:
    """Exact sup of ||x_hat - x|| over noise with ||eta|| <= delta: the
    one-alpha case of the row kernel, with the maximizing noise as the
    witness on request."""
    row = _worst_case_rows(method, np.array([alpha], dtype=float), x, delta)
    value, bias_val, d_max, sigma, hard, pad_sq = (v[0].item() for v in row)

    witness = None
    if want_witness:
        op = x.op
        eta = np.zeros(op.n_slots)
        if delta > 0.0 and d_max > 0.0:
            mult = op.multiplicities
            # the kernel's level tables of this one row
            blk = next(_blocks(method, np.array([alpha], dtype=float), x, delta))
            (d_level,), (g_level,), (top,) = blk[1], blk[6], blk[7]
            b_slot = np.repeat(method.r(alpha, op.eigenvalues), mult) * x.coefficients
            d_slot = np.repeat(d_level, mult)
            denom_slot = sigma + np.repeat(g_level, mult)
            nz = denom_slot > 0
            eta[nz] = -d_slot[nz] * b_slot[nz] / denom_slot[nz]
            if hard:
                # b vanishes on the top group; drop the leftover budget there
                eta[np.argmax(np.repeat(top, mult))] = math.sqrt(pad_sq)
        witness = x.with_coefficients(eta)

    return WorstCaseResult(
        value=value,
        bias=bias_val,
        propagation=d_max,
        delta=delta,
        theta=sigma + d_max * d_max,
        hard_case=hard,
        witness=witness,
    )


@dataclasses.dataclass(frozen=True)
class ErrorBreakdown:
    bias: float
    noise_term: float
    total: float

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def error_breakdown(
    method: FilterMethod,
    alpha: float,
    x: SpectralElement,
    noise: DeterministicNoise | WhiteNoise,
) -> ErrorBreakdown:
    """Bias / noise split of the reconstruction error.

    Deterministic noise: total is the exact worst case over the noise
    ball, noise_term the propagated budget ||R_alpha|| delta.  White
    noise: total is the root mean squared error, noise_term the exact
    standard deviation epsilon sqrt(trace).
    """
    if isinstance(noise, DeterministicNoise):
        wc = worst_case_error(method, alpha, x, noise.delta)
        return ErrorBreakdown(
            bias=wc.bias,
            noise_term=wc.propagation * noise.delta,
            total=wc.value,
        )
    if isinstance(noise, WhiteNoise):
        b = bias(method, alpha, x)
        stddev = noise.epsilon * math.sqrt(
            variance_trace(method, alpha, x.op)
        )
        return ErrorBreakdown(
            bias=b, noise_term=stddev, total=math.hypot(b, stddev)
        )
    raise TypeError(f"unsupported noise model {type(noise).__name__}")


@dataclasses.dataclass(frozen=True)
class MonteCarloEstimate:
    """Monte Carlo mean squared error: floats for one row, else one
    value per row in each array field."""

    mean_squared: float | np.ndarray
    se_mean_squared: float | np.ndarray
    rmse: float | np.ndarray
    n_replicates: int

    def to_dict(self) -> dict:
        return {
            k: v.tolist() if isinstance(v, np.ndarray) else v
            for k, v in dataclasses.asdict(self).items()
        }


def mse_monte_carlo(
    method: FilterMethod,
    alpha,
    x: SpectralElement,
    noise,
    n_replicates: int,
) -> MonteCarloEstimate:
    """Sample mean of ||x_hat - x||^2 under white noise.

    A scalar alpha with one ``WhiteNoise`` scores one row and gives
    floats; a 1-d alpha with a sequence of one ``WhiteNoise`` per alpha
    gives one value per row.  Replicate i draws W from the stream
    noise_generator(noise, i), which depends on (seed, i) only, so every
    row shares one seed and reads the same W: it is drawn once per
    replicate and scored for every row as ||r x - eps q sqrt(lam) W||^2.
    Estimates are reproducible per (seed, replicate), extending the
    replicate count keeps earlier draws fixed, and a row scores exactly
    as it would alone.  Time is O(replicates * slots * (1 + rows)),
    memory O(rows * (slots + replicates)).
    """
    a = np.asarray(alpha, dtype=float)
    if a.ndim > 1:
        raise ValueError("alpha must be a scalar or a 1-d array")
    if (a.ndim == 0) != isinstance(noise, WhiteNoise):
        raise ValueError(
            "a scalar alpha takes one WhiteNoise, a 1-d alpha a sequence"
        )
    noises = (noise,) if a.ndim == 0 else tuple(noise)
    alphas = a.reshape(-1)
    if len(noises) != alphas.size:
        raise ValueError(
            f"{alphas.size} alphas but {len(noises)} noises; need one per row"
        )
    if len({nz.seed for nz in noises}) > 1:
        raise ValueError("rows must share one noise seed")
    if n_replicates < 2:
        raise ValueError("need at least two replicates")
    op = x.op
    lam = op.slot_eigenvalues
    residuals = [method.r(float(ak), lam) * x.coefficients for ak in alphas]
    ds = [
        nz.epsilon * method.q(float(ak), lam) * np.sqrt(lam)
        for ak, nz in zip(alphas, noises)
    ]
    err_sq = np.empty((alphas.size, n_replicates))
    # one draw buffer w and one score buffer t for every replicate and
    # row: t becomes residual - d * w in place
    w = np.empty(op.n_slots)
    t = np.empty(op.n_slots)
    for i in range(n_replicates):
        noise_generator(noises[0], i).standard_normal(out=w)
        for k, (residual, d) in enumerate(zip(residuals, ds)):
            np.multiply(d, w, out=t)
            np.subtract(residual, t, out=t)
            err_sq[k, i] = float(t @ t)
    # each row's statistics come from its own contiguous run of err_sq
    mean = np.array([np.mean(row) for row in err_sq])
    se = np.array([np.std(row, ddof=1) for row in err_sq]) / math.sqrt(n_replicates)
    rmse = np.sqrt(mean)
    if a.ndim == 0:
        mean, se, rmse = float(mean[0]), float(se[0]), float(rmse[0])
    return MonteCarloEstimate(
        mean_squared=mean,
        se_mean_squared=se,
        rmse=rmse,
        n_replicates=n_replicates,
    )
