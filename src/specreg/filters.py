"""Spectral filter catalogue and grid certification of the filter axioms.

Each method is described by a residual filter ``r_alpha(lam)`` and the
reconstruction filter ``q_alpha(lam)`` with ``r = 1 - lam * q``.  The axioms
certified on grids are

  (i)   |q_alpha(lam)| <= C_q / alpha,
  (ii)  lam -> r_alpha(lam) is nonincreasing and nonnegative,
  (iii) alpha -> r_alpha(lam) is nondecreasing,
  (iv)  c_low <= r_alpha(alpha) <= c_diag < 1 for alpha in (0, alpha_max].

Catalogue constants:

  method                     C_q         c_low                  c_diag
  tikhonov                   1           1/2                    1/2
  showalter                  1           1/e                    1/e
  iterated tikhonov (k)      k           2^-k                   2^-k
  landweber (mu)             1           (1-mu/k_am)^(k_am)     slab sup
  lardy (beta)               max(1,1/b)  exp(-1/beta)           slab sup
  modified spectral cutoff   1/2         1/2                    1/2

For the two iterative methods the diagonal value depends on alpha only
through the iteration count k_alpha, which is constant on slabs
(1/(k+1), 1/k].  The supremum of the diagonal over (0, alpha_max] is then
attained in the limit toward the left edge of the coarsest slab:
(1 - mu/(k_am+1))^(k_am) for Landweber and (1 + 1/((k_am+1) beta))^(-k_am)
for Lardy, with k_am the iteration count at alpha_max.  The familiar
asymptotic constants exp(-mu) and exp(-1/(2 beta)) are only the alpha -> 0
limits and are exceeded on coarse slabs, so the slab-exact forms are
stored instead.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import DomainError, field, number, whole
from .index_functions import IndexFunction

__all__ = [
    "FilterMethod",
    "tikhonov",
    "showalter",
    "iterated_tikhonov",
    "landweber",
    "lardy",
    "modified_spectral_cutoff",
    "filter_from_dict",
    "iteration_count",
    "check_assumption_sr",
    "AssumptionReport",
    "CheckResult",
    "qualification_constant",
    "QualificationReport",
    "catalogue",
]


def iteration_count(alpha) -> np.ndarray | float:
    """k_alpha = min{n >= 0 : n + 1 > 1/alpha}; equals n at alpha = 1/n.

    Float fuzz near integer 1/alpha snaps to the integer.
    """
    arr = np.asarray(alpha, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(arr <= 0):
        raise DomainError("alpha must be positive")
    inv = 1.0 / arr
    rounded = np.round(inv)
    snap = np.abs(inv - rounded) <= 1e-9 * np.maximum(1.0, rounded)
    k = np.where(snap, rounded, np.floor(inv))
    return float(k[0]) if scalar else k


@dataclasses.dataclass(frozen=True)
class FilterMethod:
    """A regularization method with its certified filter constants."""

    name: str
    c_q: float
    c_low: float
    c_diag: float
    alpha_max: float
    classical_qualification: float
    k: int = 0
    mu_step: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        if not 0 < self.c_low <= self.c_diag < 1:
            raise DomainError("need 0 < c_low <= c_diag < 1")
        if self.c_q <= 0 or self.alpha_max <= 0:
            raise DomainError("c_q and alpha_max must be positive")

    @property
    def snaps_to_iteration_grid(self) -> bool:
        return self.name in ("landweber", "lardy")

    def _arguments(self, alpha, lam) -> tuple[np.ndarray, np.ndarray]:
        a = np.asarray(alpha, dtype=float)
        ok = (a > 0) & (a <= self.alpha_max * (1 + 1e-12))
        if not np.all(ok):
            bad = float(a[~ok].flat[0])
            raise DomainError(
                f"alpha={bad!r} outside (0, alpha_max={self.alpha_max!r}]"
            )
        arr = np.asarray(lam, dtype=float)
        if np.any(arr < 0):
            raise DomainError("lam must be >= 0")
        return a, arr

    def r(self, alpha, lam) -> np.ndarray | float:
        """Residual filter r_alpha(lam); r(0) = 1 for every method.

        alpha and lam broadcast: a column alpha[:, None] against a row of
        lam gives the (alpha x lam) table.  Scalars give a float.
        """
        out = _r_dispatch(self, *self._arguments(alpha, lam))
        return float(out) if np.ndim(out) == 0 else out

    def q(self, alpha, lam) -> np.ndarray | float:
        """Reconstruction filter q_alpha(lam), with the lam -> 0 limit.

        Broadcasts like ``r``.
        """
        out = _q_dispatch(self, *self._arguments(alpha, lam))
        return float(out) if np.ndim(out) == 0 else out

    def to_dict(self) -> dict:
        d = {"method": self.name}
        if self.name == "iterated_tikhonov":
            d["k"] = self.k
        elif self.name == "landweber":
            d["mu_step"] = self.mu_step
            d["alpha_max"] = self.alpha_max
        elif self.name == "lardy":
            d["beta"] = self.beta
            d["alpha_max"] = self.alpha_max
        return d


def _landweber_bases(method: FilterMethod, alpha, lam: np.ndarray):
    mu = method.mu_step
    if np.any(mu * lam > 1 + 1e-12):
        raise DomainError("landweber requires mu_step * lam <= 1")
    k = iteration_count(alpha)
    with np.errstate(divide="ignore", invalid="ignore"):
        # k log(1 - mu lam); -inf at mu lam = 1, nan there on the k = 0 slab
        return k, k * np.log1p(-np.minimum(mu * lam, 1.0))


def _r_dispatch(m: FilterMethod, alpha, lam: np.ndarray) -> np.ndarray:
    if m.name == "tikhonov":
        return alpha / (alpha + lam)
    if m.name == "showalter":
        return np.exp(-lam / alpha)
    if m.name == "iterated_tikhonov":
        return np.exp(-m.k * np.log1p(lam / alpha))
    if m.name == "landweber":
        k, expo = _landweber_bases(m, alpha, lam)
        return np.where(k == 0, 1.0, np.exp(expo))
    if m.name == "lardy":
        # k = 0 gives exp(-0) = 1 without a special case
        return np.exp(-iteration_count(alpha) * np.log1p(lam / m.beta))
    if m.name == "modified_spectral_cutoff":
        return np.maximum(1.0 - lam / (2 * alpha), 0.0)
    raise ValueError(f"unknown method {m.name!r}")


def _one_minus_r_over_lam(lam: np.ndarray, one_minus_r, limit_at_zero):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(lam > 0, one_minus_r / lam, limit_at_zero)


def _q_dispatch(m: FilterMethod, alpha, lam: np.ndarray) -> np.ndarray:
    # every branch uses q = (1 - r)/lam with an expm1-accurate numerator,
    # so the identity r + lam q = 1 holds to rounding
    if m.name == "tikhonov":
        return 1.0 / (alpha + lam)
    if m.name == "showalter":
        return _one_minus_r_over_lam(lam, -np.expm1(-lam / alpha), 1.0 / alpha)
    if m.name == "iterated_tikhonov":
        return _one_minus_r_over_lam(
            lam, -np.expm1(-m.k * np.log1p(lam / alpha)), m.k / alpha
        )
    if m.name == "landweber":
        k, expo = _landweber_bases(m, alpha, lam)
        q = _one_minus_r_over_lam(lam, -np.expm1(expo), m.mu_step * k)
        return np.where(k == 0, 0.0, q)
    if m.name == "lardy":
        # k = 0 gives (1 - 1)/lam = 0 and the limit 0 without a special case
        k = iteration_count(alpha)
        return _one_minus_r_over_lam(
            lam, -np.expm1(-k * np.log1p(lam / m.beta)), k / m.beta
        )
    if m.name == "modified_spectral_cutoff":
        # 1/lam is inf at lam = 0, where the minimum is the limit 1/(2 alpha)
        with np.errstate(divide="ignore", over="ignore"):
            return np.minimum(1.0 / lam, 1.0 / (2 * alpha))
    raise ValueError(f"unknown method {m.name!r}")


# bytes of one (alpha block x lam) double temporary in alpha_table; below
# glibc's 128 KB mmap threshold, so a block's temporaries reuse heap
# memory (at 256 KB a circle N=10k oracle run took 16k-59k minor page
# faults per benchmark cycle, depending on allocation history)
_TABLE_BYTES = 64 * 1024


def alpha_table(alpha, width: int, row_fn):
    """One value per alpha from (alpha x lam) tables built in alpha blocks.

    ``row_fn`` maps an alpha column of shape (rows, 1) to one value per
    row.  Each block's (rows x width) temporaries hold about
    ``_TABLE_BYTES``, so memory does not grow with the grid.  A scalar
    alpha is the one-row case and gives a float; a 1-d alpha an array.
    """
    a = np.asarray(alpha, dtype=float)
    if a.ndim > 1:
        raise ValueError("alpha must be a scalar or a 1-d array")
    col = a.reshape(-1, 1)
    rows = max(1, _TABLE_BYTES // (8 * width))
    out = np.empty(col.shape[0])
    for start in range(0, out.size, rows):
        out[start : start + rows] = row_fn(col[start : start + rows])
    return float(out[0]) if a.ndim == 0 else out


def tikhonov() -> FilterMethod:
    return FilterMethod(
        name="tikhonov",
        c_q=1.0,
        c_low=0.5,
        c_diag=0.5,
        alpha_max=math.inf,
        classical_qualification=1.0,
    )


def showalter() -> FilterMethod:
    return FilterMethod(
        name="showalter",
        c_q=1.0,
        c_low=math.exp(-1.0),
        c_diag=math.exp(-1.0),
        alpha_max=math.inf,
        classical_qualification=math.inf,
    )


def iterated_tikhonov(k: int) -> FilterMethod:
    if k < 1:
        raise DomainError("k must be >= 1")
    return FilterMethod(
        name="iterated_tikhonov",
        c_q=float(k),
        c_low=2.0**-k,
        c_diag=2.0**-k,
        alpha_max=math.inf,
        classical_qualification=float(k),
        k=int(k),
    )


def landweber(
    mu_step: float,
    alpha_max: float | None = None,
    op_norm_sq: float = 1.0,
) -> FilterMethod:
    """Landweber with step length mu_step in (0, 1/||T*T||].

    r_alpha = (1 - mu lam)^(k_alpha) and q_alpha = mu * sum of the geometric
    terms, so r + lam q = 1 holds exactly.  alpha_max must stay strictly
    below min(||T*T||, 1).  On the slab k_alpha = k the diagonal value
    (1 - mu alpha)^k decreases in alpha, so the infimum over (0, alpha_max]
    sits at alpha = alpha_max and the supremum is approached as alpha drops
    to 1/(k_am + 1); both envelopes converge to exp(-mu) from opposite
    sides as alpha -> 0, but exp(-mu) itself is not an upper bound for
    finite alpha, hence the slab-exact constants below.
    """
    if not 0 < mu_step <= 1:
        raise DomainError("mu_step must lie in (0, 1]")
    if mu_step > 1.0 / op_norm_sq * (1 + 1e-12):
        raise DomainError("mu_step must be <= 1/||T*T||")
    cap = min(1.0, op_norm_sq)
    am = cap * (1 - 1e-9) if alpha_max is None else alpha_max
    if not 0 < am < cap:
        raise DomainError("alpha_max must lie in (0, min(||T*T||, 1))")
    k_am = iteration_count(am)
    c_low = (1 - mu_step / k_am) ** k_am
    if c_low <= 0:
        raise DomainError(
            "degenerate diagonal bound: decrease alpha_max or mu_step"
        )
    return FilterMethod(
        name="landweber",
        c_q=1.0,
        c_low=c_low,
        c_diag=(1 - mu_step / (k_am + 1)) ** k_am,
        alpha_max=am,
        classical_qualification=math.inf,
        mu_step=mu_step,
    )


def lardy(beta: float, alpha_max: float | None = None) -> FilterMethod:
    """Lardy iteration with shift beta > 0.

    c_low = exp(-1/beta) is a valid lower diagonal bound; the stored upper
    bound is the attained supremum at the smallest iteration count (see the
    module docstring for why the exp(-1/(2 beta)) form is not used).
    """
    if not beta > 0:
        raise DomainError("beta must be positive")
    am = min(1.0, beta) if alpha_max is None else alpha_max
    if not 0 < am <= min(1.0, beta):
        raise DomainError("alpha_max must lie in (0, min(1, beta)]")
    k_am = max(int(iteration_count(am)), 1)
    c_diag = (1 + 1.0 / ((k_am + 1) * beta)) ** (-k_am)
    return FilterMethod(
        name="lardy",
        c_q=max(1.0, 1.0 / beta),
        c_low=math.exp(-1.0 / beta),
        c_diag=c_diag,
        alpha_max=am,
        classical_qualification=math.inf,
        beta=beta,
    )


def modified_spectral_cutoff() -> FilterMethod:
    return FilterMethod(
        name="modified_spectral_cutoff",
        c_q=0.5,
        c_low=0.5,
        c_diag=0.5,
        alpha_max=math.inf,
        classical_qualification=math.inf,
    )


def catalogue(op_norm_sq: float = 1.0) -> list[FilterMethod]:
    """All six methods with defaults adapted to ||T*T|| = op_norm_sq."""
    return [
        tikhonov(),
        showalter(),
        iterated_tikhonov(2),
        landweber(mu_step=0.9 / op_norm_sq, op_norm_sq=op_norm_sq),
        lardy(beta=1.0),
        modified_spectral_cutoff(),
    ]


def filter_from_dict(d: dict) -> FilterMethod:
    """The method a spec names; its fields are read as ``method.<key>``."""
    name = field(d, "method.method")
    alpha_max = (
        number("method.alpha_max", d["alpha_max"]) if "alpha_max" in d else None
    )
    if name == "tikhonov":
        return tikhonov()
    if name == "showalter":
        return showalter()
    if name == "iterated_tikhonov":
        return iterated_tikhonov(whole("method.k", field(d, "method.k")))
    if name == "landweber":
        return landweber(
            mu_step=number("method.mu_step", field(d, "method.mu_step")),
            alpha_max=alpha_max,
            op_norm_sq=number("method.op_norm_sq", d.get("op_norm_sq", 1.0), above=0),
        )
    if name == "lardy":
        beta = number("method.beta", field(d, "method.beta"))
        return lardy(beta=beta, alpha_max=alpha_max)
    if name == "modified_spectral_cutoff":
        return modified_spectral_cutoff()
    raise DomainError(f"unknown method {name!r}")


@dataclasses.dataclass(frozen=True)
class CheckResult:
    passed: bool
    worst_value: float
    witness: tuple[float, float] | None = None

    def to_dict(self):
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class AssumptionReport:
    method: str
    q_bound: CheckResult
    r_monotone_lam: CheckResult
    r_monotone_alpha: CheckResult
    diagonal: CheckResult
    diagonal_range: tuple[float, float]

    @property
    def passed(self) -> bool:
        return (
            self.q_bound.passed
            and self.r_monotone_lam.passed
            and self.r_monotone_alpha.passed
            and self.diagonal.passed
        )

    def to_dict(self):
        return {
            "method": self.method,
            "passed": self.passed,
            "q_bound": self.q_bound.to_dict(),
            "r_monotone_lam": self.r_monotone_lam.to_dict(),
            "r_monotone_alpha": self.r_monotone_alpha.to_dict(),
            "diagonal": self.diagonal.to_dict(),
            "diagonal_range": list(self.diagonal_range),
        }


def check_assumption_sr(
    method: FilterMethod,
    alpha_grid,
    lam_grid,
    tol: float = 1e-12,
) -> AssumptionReport:
    """Certify the four filter axioms on the supplied grids.

    alpha_grid must lie in (0, alpha_max]; lam_grid in [0, ||T*T||].  The
    report records the worst witness per check and the measured diagonal
    range min/max of r_alpha(alpha).
    """
    alphas = np.sort(np.asarray(alpha_grid, dtype=float))
    lams = np.sort(np.asarray(lam_grid, dtype=float))
    if np.any(alphas <= 0):
        raise DomainError("alpha grid must be positive")
    if np.any(alphas > method.alpha_max * (1 + 1e-12)):
        raise DomainError("alpha grid exceeds alpha_max")

    R = method.r(alphas[:, None], lams)
    Q = method.q(alphas[:, None], lams)

    # (i) |q| <= C_q / alpha
    scaled = np.abs(Q) * alphas[:, None]
    i_w = np.unravel_index(np.argmax(scaled), scaled.shape)
    q_check = CheckResult(
        passed=bool(scaled[i_w] <= method.c_q * (1 + tol)),
        worst_value=float(scaled[i_w]),
        witness=(float(alphas[i_w[0]]), float(lams[i_w[1]])),
    )

    # (ii) r nonincreasing in lam, and 0 <= r
    dlam = np.diff(R, axis=1)
    worst_up = float(dlam.max(initial=-np.inf))
    neg = float(R.min())
    ok_ii = worst_up <= tol and neg >= -tol
    if dlam.size:
        j_w = np.unravel_index(np.argmax(dlam), dlam.shape)
        wit_ii = (float(alphas[j_w[0]]), float(lams[j_w[1] + 1]))
    else:
        wit_ii = None
    lam_check = CheckResult(passed=bool(ok_ii), worst_value=max(worst_up, -neg), witness=wit_ii)

    # (iii) r nondecreasing in alpha
    dalpha = np.diff(R, axis=0)
    worst_down = float((-dalpha).max(initial=-np.inf))
    if dalpha.size:
        k_w = np.unravel_index(np.argmax(-dalpha), dalpha.shape)
        wit_iii = (float(alphas[k_w[0] + 1]), float(lams[k_w[1]]))
    else:
        wit_iii = None
    alpha_check = CheckResult(
        passed=bool(worst_down <= tol), worst_value=worst_down, witness=wit_iii
    )

    # (iv) c_low <= r_alpha(alpha) <= c_diag on the diagonal
    diag = method.r(alphas, alphas)
    lo, hi = float(diag.min()), float(diag.max())
    bad_low = diag < method.c_low - tol
    bad_high = diag > method.c_diag + tol
    ok_iv = not (bad_low.any() or bad_high.any())
    witness_iv = None
    worst_iv = 0.0
    if not ok_iv:
        viol = np.where(bad_low, method.c_low - diag, 0.0) + np.where(
            bad_high, diag - method.c_diag, 0.0
        )
        j = int(np.argmax(viol))
        witness_iv = (float(alphas[j]), float(alphas[j]))
        worst_iv = float(viol[j])
    diag_check = CheckResult(passed=bool(ok_iv), worst_value=worst_iv, witness=witness_iv)

    return AssumptionReport(
        method=method.name,
        q_bound=q_check,
        r_monotone_lam=lam_check,
        r_monotone_alpha=alpha_check,
        diagonal=diag_check,
        diagonal_range=(lo, hi),
    )


@dataclasses.dataclass(frozen=True)
class QualificationReport:
    """Grid estimate of the qualification constant for kappa^nu."""

    value: float
    per_alpha: np.ndarray
    alphas: np.ndarray
    diverging: bool

    def to_dict(self):
        return {
            "value": self.value,
            "diverging": self.diverging,
            "alpha_min": float(self.alphas[0]),
            "alpha_max": float(self.alphas[-1]),
        }


def qualification_constant(
    method: FilterMethod,
    kappa: IndexFunction,
    nu: float,
    alpha_grid,
    lam_grid,
) -> QualificationReport:
    """B_hat = max over the grids of r_alpha(lam) kappa(lam)^nu / kappa(alpha)^nu.

    A finite stable B_hat certifies the qualification inequality on the
    sampled grid; ``diverging`` flags growth of the per-alpha suprema toward
    small alpha (the signature of insufficient classical qualification).
    """
    if not nu > 0:
        raise DomainError("nu must be positive")
    alphas = np.sort(np.asarray(alpha_grid, dtype=float))
    lams = np.sort(np.asarray(lam_grid, dtype=float))
    # a large nu overflows or underflows kappa^nu: the supremum is then
    # inf or nan, which the caller reads as no certified constant
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        kap_l = np.asarray(kappa(lams)) ** nu
        kap_a = np.asarray(kappa(alphas)) ** nu
        per_alpha = (
            alpha_table(
                alphas, lams.size, lambda a: np.max(method.r(a, lams) * kap_l, axis=1)
            )
            / kap_a
        )
    value = float(per_alpha.max())
    mid = max(per_alpha[len(per_alpha) // 2], 1e-300)
    diverging = bool(np.argmax(per_alpha) == 0 and per_alpha[0] > 4 * mid)
    return QualificationReport(
        value=value, per_alpha=per_alpha, alphas=alphas, diverging=diverging
    )
