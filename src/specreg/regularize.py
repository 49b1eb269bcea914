"""Reconstruction, error split, and exact worst-case noise analysis.

In the diagonal model the data element has image-side coefficients
y_j = sqrt(lam_j) x_j + eta_j and the regularized reconstruction is
x_hat_j = q_alpha(lam_j) sqrt(lam_j) y_j.  The error splits into

    x_hat - x = -r_alpha(Lam) x + D eta,   D = diag(q_alpha sqrt(lam)),

so the worst deterministic error over ||eta|| <= delta is a quadratic
maximization over a ball.  Its maximizer solves the secular equation

    sum_j c_j^2 / (sigma + g_j)^2 = delta^2,

with c_j = d_j b_j, b = r x, g_j = d_max^2 - d_j^2 and theta =
sigma + d_max^2 the KKT multiplier.  The left side is monotone in sigma,
so ``roots.bracketed_roots`` bisects for it; when every c_j on the top
group vanishes and the remaining mass cannot absorb the full budget the
multiplier sticks at theta = d_max^2 (hard case) and the leftover noise
norm is padded onto a top slot.  Evaluations are grouped per eigenvalue
level, so one secular step costs O(#levels) regardless of multiplicity.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import DomainError, EnvelopeViolationError
from .filters import FilterMethod
from .spectral import (
    DeterministicNoise,
    SpectralElement,
    SpectralOperator,
    WhiteNoise,
    noise_generator,
)
from .roots import bracketed_roots

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


def bias(method: FilterMethod, alpha: float, x: SpectralElement) -> float:
    """||r_alpha(T*T) x||, the noise-free reconstruction error."""
    lam = x.op.slot_eigenvalues
    return float(np.linalg.norm(method.r(alpha, lam) * x.coefficients))


def propagation_norm(
    method: FilterMethod, alpha: float, op: SpectralOperator
) -> float:
    """Operator norm of the reconstruction map R_alpha = q_alpha(T*T) T*."""
    d = method.q(alpha, op.eigenvalues) * np.sqrt(op.eigenvalues)
    return float(np.max(np.abs(d))) if d.size else 0.0


def variance_trace(
    method: FilterMethod, alpha: float, op: SpectralOperator
) -> float:
    """trace(R_alpha R_alpha*) = sum over slots of q^2 lam."""
    d_sq = (method.q(alpha, op.eigenvalues) ** 2) * op.eigenvalues
    return float(np.sum(op.multiplicities * d_sq))


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


def _solve_secular(c, g, delta):
    """Root of f(sigma) = sum (c/(sigma+g))^2 = delta^2 with f decreasing.

    Requires f(0+) > delta^2, i.e. either some c with g == 0 or enough
    mass near the top.  Returns sigma > 0.  f <= ||c||^2 / sigma^2 bounds
    the root above by ||c|| / delta; a top group with mass c_top bounds it
    below by c_top / delta, otherwise the smallest normal double does.
    """
    c_top = float(np.linalg.norm(c[g == 0.0]))
    sigma, _ = bracketed_roots(
        lambda s: np.sum((c / (s + g)) ** 2),
        delta * delta,
        c_top / delta if c_top > 0.0 else np.finfo(float).tiny,
        float(np.linalg.norm(c)) / delta,
        increasing=False,
    )
    return float(sigma)


def worst_case_error(
    method: FilterMethod,
    alpha: float,
    x: SpectralElement,
    delta: float,
    want_witness: bool = False,
) -> WorstCaseResult:
    """Exact sup of ||x_hat - x|| over noise with ||eta|| <= delta."""
    op = x.op
    lam_level = op.eigenvalues
    lam_slot = op.slot_eigenvalues
    r_slot = method.r(alpha, lam_slot)
    b_slot = r_slot * x.coefficients
    d_level = np.abs(method.q(alpha, lam_level)) * np.sqrt(lam_level)
    d_slot = np.repeat(d_level, op.multiplicities)
    bias_val = float(np.linalg.norm(b_slot))
    d_max = float(np.max(d_level)) if d_level.size else 0.0

    if delta < 0:
        raise DomainError("delta must be nonnegative")
    if delta == 0.0 or d_max == 0.0:
        witness = x.with_coefficients(np.zeros(op.n_slots)) if want_witness else None
        return WorstCaseResult(
            value=bias_val,
            bias=bias_val,
            propagation=d_max,
            delta=delta,
            theta=d_max**2,
            hard_case=False,
            witness=witness,
        )

    # level norms of b and c = d b; sums below are of squared ratios, so
    # no square of theta, sigma or g overflows at tiny alpha
    b_level = np.sqrt(op.level_sums(b_slot**2))
    c_level = d_level * b_level
    g_level = d_max**2 - d_level**2
    top = g_level <= 1e-30 * d_max**2
    g_level = np.where(top, 0.0, g_level)
    delta_sq = delta * delta

    hard = False
    if not np.any(c_level[top]):
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(g_level > 0, c_level / g_level, 0.0)
        s_lim = float(np.sum(terms**2))
        hard = s_lim <= delta_sq

    if hard:
        sigma = 0.0
        pad_sq = delta_sq - s_lim
    else:
        sigma = _solve_secular(c_level, g_level, delta)
        pad_sq = 0.0

    theta = sigma + d_max**2
    denom = sigma + g_level
    if hard:
        # top numerators vanish with the denominator; sum the interior only
        keep = ~top
        value = theta * float(np.linalg.norm(b_level[keep] / denom[keep]))
        value = math.hypot(value, d_max * math.sqrt(pad_sq))
    else:
        value = theta * float(np.linalg.norm(b_level / denom))

    witness = None
    if want_witness:
        denom_slot = sigma + np.repeat(g_level, op.multiplicities)
        eta = np.zeros(op.n_slots)
        nz = denom_slot > 0
        eta[nz] = -d_slot[nz] * b_slot[nz] / denom_slot[nz]
        if hard:
            # b vanishes on the top group; drop the leftover budget there
            top_slots = np.repeat(top, op.multiplicities)
            eta[np.argmax(top_slots)] = math.sqrt(pad_sq)
        witness = x.with_coefficients(eta)

    return WorstCaseResult(
        value=value,
        bias=bias_val,
        propagation=d_max,
        delta=delta,
        theta=theta,
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
    b = bias(method, alpha, x)
    if isinstance(noise, DeterministicNoise):
        wc = worst_case_error(method, alpha, x, noise.delta)
        return ErrorBreakdown(
            bias=b,
            noise_term=wc.propagation * noise.delta,
            total=wc.value,
        )
    if isinstance(noise, WhiteNoise):
        stddev = noise.epsilon * math.sqrt(
            variance_trace(method, alpha, x.op)
        )
        return ErrorBreakdown(
            bias=b, noise_term=stddev, total=math.hypot(b, stddev)
        )
    raise TypeError(f"unsupported noise model {type(noise).__name__}")


@dataclasses.dataclass(frozen=True)
class MonteCarloEstimate:
    mean_squared: float
    se_mean_squared: float
    rmse: float
    n_replicates: int

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def mse_monte_carlo(
    method: FilterMethod,
    alpha: float,
    x: SpectralElement,
    noise: WhiteNoise,
    n_replicates: int,
) -> MonteCarloEstimate:
    """Sample mean of ||x_hat - x||^2 under white noise.

    Each replicate i draws from the stream noise_generator(noise, i), so
    estimates are reproducible per (seed, replicate) and extending the
    replicate count keeps earlier draws fixed.
    """
    if n_replicates < 2:
        raise ValueError("need at least two replicates")
    op = x.op
    lam = op.slot_eigenvalues
    residual = method.r(alpha, lam) * x.coefficients
    d = noise.epsilon * method.q(alpha, lam) * np.sqrt(lam)
    err_sq = np.empty(n_replicates)
    # one buffer for every replicate: w becomes residual - d * w in place
    w = np.empty(op.n_slots)
    for i in range(n_replicates):
        noise_generator(noise, i).standard_normal(out=w)
        np.multiply(d, w, out=w)
        np.subtract(residual, w, out=w)
        err_sq[i] = float(w @ w)
    mean = float(np.mean(err_sq))
    se = float(np.std(err_sq, ddof=1) / math.sqrt(n_replicates))
    return MonteCarloEstimate(
        mean_squared=mean,
        se_mean_squared=se,
        rmse=math.sqrt(mean),
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
    ratios = np.empty(alphas.size)
    for i, a in enumerate(alphas):
        v = float(envelope(a))
        if not v > 0:
            raise DomainError("envelope must be positive on the grid")
        ratios[i] = math.sqrt(variance_trace(method, a, op)) / v
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
