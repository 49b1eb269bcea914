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
the results it gets alone, bit for bit.

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

from .errors import DomainError, EnvelopeViolationError
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
    "apply_regularizer",
    "bias",
    "propagation_norm",
    "variance_trace",
    "worst_case_error",
    "worst_case_bounds",
    "WorstCaseResult",
    "error_breakdown",
    "ErrorBreakdown",
    "mse_monte_carlo",
    "MonteCarloEstimate",
    "certify_variance_envelope",
    "EnvelopeCertificate",
]


def apply_regularizer(
    method: FilterMethod, alpha: float, data: SpectralElement
) -> SpectralElement:
    """Reconstruct from image-side data coefficients."""
    lam = data.op.slot_eigenvalues
    coeff = method.q(alpha, lam) * np.sqrt(lam) * data.coefficients
    return data.with_coefficients(coeff)


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


def worst_case_bounds(
    method: FilterMethod, alpha: float, x: SpectralElement, delta: float
) -> tuple[float, float]:
    """Cheap sandwich max(bias, ||R|| delta) <= worst case <= sum."""
    b = bias(method, alpha, x)
    p = propagation_norm(method, alpha, x.op) * delta
    return max(b, p), b + p


def _row_norms(v) -> np.ndarray:
    """Euclidean norm along the last axis of a nonnegative array, its
    squares scaled so that they neither overflow nor underflow."""
    top = np.max(v, axis=-1, initial=0.0)
    scaled = v / np.where(top > 0.0, top, 1.0)[..., None]
    return top * np.sqrt(np.sum(np.square(scaled, out=scaled), axis=-1))


def _gaps(d, d_max):
    """g = d_max^2 - d^2 per level and the top-group mask where g vanishes
    to 1e-30 relative; g is set to exactly 0 on the top group."""
    top_sq = np.square(d_max)
    g = np.square(d)
    np.subtract(top_sq, g, out=g)
    top = g <= 1e-30 * top_sq
    np.copyto(g, 0.0, where=top)
    return g, top


def _masked_rows(a, rows):
    """The rows of ``a`` selected by the mask ``rows``; ``a`` itself when
    every row is."""
    return a if rows.all() else a[rows]


def _solve_secular(c, g, delta):
    """Roots of f(sigma) = sum (c/(sigma+g))^2 = delta^2 with f decreasing,
    one per row of the (rows x levels) arrays c and g.

    Requires f(0+) > delta^2 on every row, i.e. either some c with g == 0
    or enough mass near the top.  Returns (sigma, steps): sigma > 0 and
    the Newton steps of each row.  f <= ||c||^2 / sigma^2 bounds the root
    above by ||c|| / delta; a top group with mass c_top bounds it below
    by c_top / delta, otherwise the smallest normal double does.  The
    equation is solved as phi(sigma) = 1/sqrt(f(sigma)) = 1/delta: phi is
    increasing and concave (Hebden 1973; More & Sorensen 1983), so Newton
    steps from the lower bracket end rise monotonically to the root, with
    phi' = f^{-3/2} sum c^2/(sigma+g)^3.  Every row is one bracket of a
    single ``bracketed_roots`` call, and phi and phi' are taken on the
    whole block in three level buffers that every trial point reuses.
    """
    c_top = _row_norms(np.where(g == 0.0, c, 0.0))
    lo = np.where(c_top > 0.0, c_top / delta, _TINY)
    hi = _row_norms(c) / delta
    if c.shape[0] == 1:
        # one row is solved on 1-d levels with a 0-d bracket, whose
        # arithmetic runs on numpy scalars, cheaper than 1-element arrays
        c, g, lo, hi = c[0], g[0], lo[0], hi[0]
    inv, u_sq, w = (np.empty_like(c) for _ in range(3))
    # phi and its slope are taken at each trial point in turn; both read
    # 1/(s+g), (c/(s+g))^2 and f of the last point
    last = [None, None]

    def f_at(s):
        if last[0] is not s:
            np.add(s[..., None], g, out=inv)
            np.divide(1.0, inv, out=inv)
            np.multiply(c, inv, out=u_sq)
            np.square(u_sq, out=u_sq)
            last[:] = s, u_sq.sum(axis=-1)
        return last[1]

    def phi(s):
        return 1.0 / np.sqrt(f_at(s))

    def phi_slope(s):
        f = f_at(s)
        np.multiply(u_sq, inv, out=w)
        return w.sum(axis=-1) / (f * np.sqrt(f))

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


def _worst_case_rows(method: FilterMethod, alphas, x: SpectralElement, delta):
    """Worst case at every alpha of the 1-d array ``alphas``, one delta.

    Rows go in blocks whose (rows x levels) tables hold about
    ``_TABLE_BYTES`` each, as in ``alpha_table``: r, q, c and g are built
    once per block, the hard case is a row mask, and the other rows of
    the block are solved together by ``_solve_secular``.  A row's results
    do not depend on which rows share its block.
    """
    if delta < 0:
        raise DomainError("delta must be nonnegative")
    lam, mass = x.op.eigenvalues, x.level_mass
    root_lam = np.sqrt(lam)
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
    rows = max(1, _TABLE_BYTES // (8 * lam.size))
    for start in range(0, n, rows):
        blk = slice(start, start + rows)
        col = alphas[blk, None]
        d = method.q(col, lam)
        np.abs(d, out=d)
        d *= root_lam
        # squared level norms of b = r x; as in a sum of squared slot
        # values, a b whose square underflows reads zero, so such a top
        # group takes the hard-case branch below
        b = method.r(col, lam)
        np.square(b, out=b)
        b *= mass
        bias_val = np.sqrt(np.sum(b, axis=1))
        np.sqrt(b, out=b)
        d_max = np.max(d, axis=1)
        out.bias[blk], out.d_max[blk] = bias_val, d_max
        noisy = (d_max > 0.0) & (delta > 0.0)
        out.value[blk] = bias_val
        if not noisy.any():
            continue

        # level norms of c = d b; sums below are of squared ratios, so no
        # square of theta, sigma or g overflows at tiny alpha
        c = d * b
        g, top = _gaps(d, d_max[:, None])
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
        lam = op.eigenvalues
        eta = np.zeros(op.n_slots)
        if delta > 0.0 and d_max > 0.0:
            mult = op.multiplicities
            d_level = np.abs(method.q(alpha, lam)) * np.sqrt(lam)
            g_level, top = _gaps(d_level, d_max)
            b_slot = np.repeat(method.r(alpha, lam), mult) * x.coefficients
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


@dataclasses.dataclass(frozen=True)
class EnvelopeCertificate:
    c_lower: float
    c_upper: float
    two_sided_factor: float
    alphas: np.ndarray
    ratios: np.ndarray

    def to_dict(self) -> dict:
        return {
            "c_lower": self.c_lower,
            "c_upper": self.c_upper,
            "two_sided_factor": self.two_sided_factor,
        }


def certify_variance_envelope(
    method: FilterMethod,
    op: SpectralOperator,
    envelope,
    alpha_grid,
    max_factor: float | None = None,
) -> EnvelopeCertificate:
    """Bound sqrt(trace) between c_lower * v(alpha) and c_upper * v(alpha).

    envelope is a positive callable of alpha.  The two sided factor is the
    smallest D with v/D <= sqrt(trace) <= D v on the grid.  When
    max_factor is given, exceeding it raises EnvelopeViolationError.
    """
    alphas = np.asarray(alpha_grid, dtype=float)
    env = np.array([float(envelope(a)) for a in alphas])
    if not np.all(env > 0):
        raise DomainError("envelope must be positive on the grid")
    ratios = np.sqrt(variance_trace(method, alphas, op)) / env
    c_lower = float(np.min(ratios))
    c_upper = float(np.max(ratios))
    if c_lower <= 0:
        raise DomainError("variance trace vanished on the grid")
    factor = max(c_upper, 1.0 / c_lower)
    if max_factor is not None and factor > max_factor:
        raise EnvelopeViolationError(
            f"envelope factor {factor:.4g} exceeds allowed {max_factor:.4g}"
        )
    return EnvelopeCertificate(
        c_lower=c_lower,
        c_upper=c_upper,
        two_sided_factor=factor,
        alphas=alphas,
        ratios=ratios,
    )
