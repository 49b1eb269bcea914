"""Index-function calculus for smoothness classes in the diagonal model.

An index function ``kappa`` is a continuous, nondecreasing function on
``[0, domain_max]`` with ``kappa(0) = 0`` and ``kappa > 0`` on the open
interval.  The calculus built on top of it is

* ``Theta(lam) = sqrt(lam) * kappa(lam)``, always strictly increasing,
* ``psi_kappa(t) = kappa(Theta^{-1}(sqrt(t)))**2``, the induced
  smoothness-to-data transfer function,
* ``psi_kappa_v``, the variant where the noise weight ``1/sqrt(lam)`` is
  replaced by a general strictly decreasing variance envelope ``v``.

Every inverse is one call of ``roots.bracketed_roots`` on certified
brackets: Theta^{-1} and ``psi_kappa`` bisect all targets at once on the
resolvable range of Theta, and ``PsiProfile`` caches a log-spaced table
that hands each target a one-cell bracket.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, OutOfRangeError, field, number, section
from .roots import bracketed_roots

__all__ = [
    "IndexFunction",
    "PowerIndex",
    "LogPowerIndex",
    "TabulatedIndex",
    "ComposedIndex",
    "CappedIndex",
    "theta",
    "theta_inverse",
    "psi_kappa",
    "psi_kappa_v",
    "PsiProfile",
    "StructureReport",
    "check_structure",
    "index_function_from_dict",
]

# Smallest argument considered resolvable when hunting for inversion brackets.
_LAM_FLOOR = 1e-300


class IndexFunction:
    """Base class: nondecreasing, continuous, zero at zero, positive beyond."""

    domain_max: float
    mu: float | None

    @property
    def domain_min(self) -> float:
        """Smallest positive argument the function accepts (0: any)."""
        return 0.0

    def _eval_positive(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @property
    def strictly_increasing(self) -> bool:
        return True

    def _check_domain(self, t: np.ndarray) -> None:
        if np.any(t < 0):
            raise DomainError("index function argument must be >= 0")
        if np.any((t > 0) & (t < self.domain_min * (1 - 1e-12))):
            raise DomainError("argument below the tabulated range")
        if np.any(t > self.domain_max * (1 + 1e-12)):
            raise DomainError(
                f"argument exceeds certified domain_max={self.domain_max!r}"
            )

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        self._check_domain(arr)
        out = self.unchecked(arr)
        return float(out[0]) if scalar else out

    def unchecked(self, t: np.ndarray) -> np.ndarray:
        """Values on a 1-d float array without the domain check, for
        points inside a positive bracket whose ends were checked: the
        positive part of the domain is an interval, so they lie in it."""
        out = np.zeros_like(t)
        pos = t > 0
        if np.any(pos):
            out[pos] = self._eval_positive(t[pos])
        return out

    def to_dict(self) -> dict:
        raise NotImplementedError


def _validate_mu(f: IndexFunction) -> None:
    """Spot-check a declared mu tag on a coarse log grid."""
    if not 0 < f.mu < 1:
        raise DomainError("mu must lie in (0, 1)")
    hi = min(f.domain_max, 1.0)
    grid = np.geomspace(hi * 1e-12, hi * (1 - 1e-9), 64)
    ratio = f(grid) ** 2 / grid ** (1 - f.mu)
    if np.any(np.diff(ratio) > 1e-9 * ratio[:-1]):
        raise DomainError("declared mu fails the sampled decay check")


@dataclasses.dataclass(frozen=True)
class PowerIndex(IndexFunction):
    """kappa(t) = t**nu with nu > 0."""

    nu: float
    domain_max: float = math.inf
    mu: float | None = None

    def __post_init__(self):
        if not self.nu > 0:
            raise DomainError("nu must be positive")
        if self.mu is not None:
            _validate_mu(self)

    def _eval_positive(self, t):
        return t**self.nu

    def to_dict(self):
        return {"kind": "power", "nu": self.nu}


@dataclasses.dataclass(frozen=True)
class LogPowerIndex(IndexFunction):
    """kappa(t) = (shift - ln t)**(-p) with p > 0, defined for t < e**shift."""

    p: float
    shift: float = 0.0
    domain_max: float = dataclasses.field(default=math.nan)
    mu: float | None = None

    def __post_init__(self):
        if not self.p > 0:
            raise DomainError("p must be positive")
        # exp(shift) must be a finite double
        if not 0 <= self.shift < math.log(sys.float_info.max):
            raise DomainError(f"shift must lie in [0, 709.78), got {self.shift!r}")
        limit = math.exp(self.shift)
        if math.isnan(self.domain_max):
            object.__setattr__(self, "domain_max", limit * (1 - 1e-12))
        if self.domain_max >= limit:
            raise DomainError("domain_max must be < exp(shift)")
        if self.mu is not None:
            _validate_mu(self)

    def _check_domain(self, t):
        super()._check_domain(t)
        if np.any(t >= math.exp(self.shift)):
            raise DomainError("log-power index undefined at t >= exp(shift)")

    def _eval_positive(self, t):
        return (self.shift - np.log(t)) ** (-self.p)

    def to_dict(self):
        return {"kind": "logpower", "p": self.p, "shift": self.shift}


@dataclasses.dataclass(frozen=True)
class TabulatedIndex(IndexFunction):
    """Piecewise log-log linear interpolant of monotone (t, value) samples.

    Ties in the values are allowed (plateaus); extrapolation is refused.
    """

    points: np.ndarray
    mu: float | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise DomainError("points must be an (n, 2) array with n >= 2")
        if np.any(pts <= 0):
            raise DomainError("tabulated samples must be strictly positive")
        if np.any(np.diff(pts[:, 0]) <= 0):
            raise DomainError("sample arguments must be strictly increasing")
        if np.any(np.diff(pts[:, 1]) < 0):
            raise DomainError("sample values must be nondecreasing")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "domain_max", float(pts[-1, 0]))
        if self.mu is not None:
            _validate_mu(self)

    @property
    def domain_min(self) -> float:
        return float(self.points[0, 0])

    @property
    def strictly_increasing(self) -> bool:
        return bool(np.all(np.diff(self.points[:, 1]) > 0))

    def _eval_positive(self, t):
        logt = np.log(np.clip(t, self.domain_min, self.domain_max))
        return np.exp(
            np.interp(logt, np.log(self.points[:, 0]), np.log(self.points[:, 1]))
        )

    def to_dict(self):
        return {"kind": "table", "points": self.points.tolist()}


@dataclasses.dataclass(frozen=True)
class ComposedIndex(IndexFunction):
    """scale * base(arg_scale * t)**power; covers rescaled and powered kappas."""

    base: IndexFunction
    scale: float = 1.0
    power: float = 1.0
    arg_scale: float = 1.0
    mu: float | None = None

    def __post_init__(self):
        if not (self.scale > 0 and self.power > 0 and self.arg_scale > 0):
            raise DomainError("scale, power and arg_scale must be positive")
        object.__setattr__(
            self, "domain_max", self.base.domain_max / self.arg_scale
        )
        if self.mu is not None:
            _validate_mu(self)

    @property
    def domain_min(self) -> float:
        return self.base.domain_min / self.arg_scale

    @property
    def strictly_increasing(self) -> bool:
        return self.base.strictly_increasing

    def _check_domain(self, t):
        super()._check_domain(t)
        self.base._check_domain(self.arg_scale * t)

    def _eval_positive(self, t):
        return self.scale * self.base.unchecked(self.arg_scale * t) ** self.power

    def to_dict(self):
        return {
            "kind": "composition",
            "base": self.base.to_dict(),
            "scale": self.scale,
            "power": self.power,
            "arg_scale": self.arg_scale,
        }


@dataclasses.dataclass(frozen=True)
class CappedIndex(IndexFunction):
    """base(min(t, cap_at)): constant beyond cap_at.

    This is the plateau produced when a smoothness scale is read off a
    spectral decay law that is only informative below some frequency; the
    function stays a valid (nondecreasing) index function.
    """

    base: IndexFunction
    cap_at: float
    domain_max: float = math.inf
    mu: float | None = None

    def __post_init__(self):
        if not 0 < self.cap_at <= self.base.domain_max:
            raise DomainError("cap_at must lie inside the base domain")
        if self.mu is not None:
            _validate_mu(self)

    @property
    def domain_min(self) -> float:
        return self.base.domain_min

    @property
    def strictly_increasing(self) -> bool:
        return False

    def _check_domain(self, t):
        super()._check_domain(t)
        self.base._check_domain(np.minimum(t, self.cap_at))

    def _eval_positive(self, t):
        return self.base.unchecked(np.minimum(t, self.cap_at))

    def to_dict(self):
        return {
            "kind": "capped",
            "base": self.base.to_dict(),
            "cap_at": self.cap_at,
        }


def index_function_from_dict(d: dict, path: str = "kappa") -> IndexFunction:
    """Inverse of ``to_dict`` for every supported kind; fields are read
    as ``<path>.<key>``."""
    kind = field(section(path, d), f"{path}.kind")
    if kind == "power":
        return PowerIndex(nu=number(f"{path}.nu", field(d, f"{path}.nu")))
    if kind == "logpower":
        return LogPowerIndex(
            p=number(f"{path}.p", field(d, f"{path}.p")),
            shift=number(f"{path}.shift", d.get("shift", 0.0)),
        )
    if kind == "table":
        rows = field(d, f"{path}.points")
        if not isinstance(rows, list) or any(
            not isinstance(row, list) or len(row) != 2 for row in rows
        ):
            raise DomainError(f"{path}.points must be a list of [t, value] pairs")
        points = [[number(f"{path}.points", v) for v in row] for row in rows]
        return TabulatedIndex(points=np.array(points, dtype=float))
    if kind == "composition":
        return ComposedIndex(
            base=index_function_from_dict(field(d, f"{path}.base"), f"{path}.base"),
            scale=number(f"{path}.scale", d.get("scale", 1.0)),
            power=number(f"{path}.power", d.get("power", 1.0)),
            arg_scale=number(f"{path}.arg_scale", d.get("arg_scale", 1.0)),
        )
    if kind == "capped":
        return CappedIndex(
            base=index_function_from_dict(field(d, f"{path}.base"), f"{path}.base"),
            cap_at=number(f"{path}.cap_at", field(d, f"{path}.cap_at")),
        )
    raise DomainError(f"{path}.kind: unknown index function kind {kind!r}")


def theta(f: IndexFunction, lam):
    """Theta(lam) = sqrt(lam) * kappa(lam), strictly increasing."""
    arr = np.asarray(lam, dtype=float)
    vals = np.sqrt(arr) * np.asarray(f(arr))
    return float(vals) if arr.ndim == 0 else vals


def _theta_in_bracket(f: IndexFunction, lam: np.ndarray) -> np.ndarray:
    """Theta at the trial points of a bracket whose ends were checked."""
    return np.sqrt(lam) * f.unchecked(lam)


def _floor(f: IndexFunction) -> float:
    """Bottom of an inversion bracket: the lowest point f can evaluate."""
    return max(f.domain_min, _LAM_FLOOR)


def _finite_top(fn, hi: float) -> float:
    """Top of an inversion bracket: hi shrunk by 8s until fn(hi) is finite."""
    with np.errstate(over="ignore"):
        while not math.isfinite(fn(hi)):
            hi *= 0.125
    return hi


def theta_inverse(f: IndexFunction, y: float, tol: float = 1e-12) -> float:
    """Solve Theta(lam) = y by bisection on a certified bracket.

    Parameters
    ----------
    f : IndexFunction
    y : positive target value; must lie in the range of Theta on
        ``(0, domain_max]``.
    tol : relative tolerance on the defect ``|Theta(lam) - y| <= tol * y``.
    """
    if not y > 0:
        raise OutOfRangeError("inversion target must be positive")
    return float(_theta_inverse_bulk(f, np.array([float(y)]), tol)[0])


def _theta_inverse_bulk(f: IndexFunction, y: np.ndarray, tol: float) -> np.ndarray:
    """Vectorized ``theta_inverse`` for positive targets.

    Every target is bracketed by [floor, top], the resolvable range of
    Theta; each returned lam satisfies ``|Theta(lam) - y| <= tol * y``
    or closes its bracket to a few ulps.
    """
    floor = _floor(f)
    hi = _finite_top(lambda t: theta(f, t), min(f.domain_max, 1e280))
    if np.any(y > theta(f, hi) * (1 + tol)):
        raise OutOfRangeError("target above the range of Theta on the domain")
    if np.any(y * (1 + tol) < theta(f, floor)):
        raise OutOfRangeError("target below the resolvable range")
    return bracketed_roots(
        lambda t: _theta_in_bracket(f, t), y, floor, hi, increasing=True, tol=tol
    )[0]


def psi_kappa(f: IndexFunction, t, tol: float = 1e-12):
    """psi(t) = kappa(Theta^{-1}(sqrt(t)))**2, elementwise over ``t``."""
    arr = np.asarray(t, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(arr < 0):
        raise DomainError("psi argument must be >= 0")
    out = np.zeros_like(arr, dtype=float)
    pos = arr > 0
    if np.any(pos):
        lam = _theta_inverse_bulk(f, np.sqrt(arr[pos]), tol)
        out[pos] = f.unchecked(lam) ** 2
    return float(out[0]) if scalar else out


def psi_kappa_v(
    f: IndexFunction,
    v: Callable[[float], float],
    eps_sq: float,
    tol: float = 1e-12,
    alpha_hi: float | None = None,
) -> float:
    """psi for a general variance envelope: kappa(G^{-1}(eps))**2 where
    G(alpha) = kappa(alpha)/v(alpha) and eps = sqrt(eps_sq).

    ``v`` must be strictly decreasing on the bracket; a constant or
    increasing ``v`` is rejected as degenerate.
    """
    if eps_sq == 0:
        return 0.0
    if eps_sq < 0:
        raise DomainError("eps_sq must be >= 0")
    eps = math.sqrt(eps_sq)
    floor = _floor(f)

    def g(a: float) -> float:
        return float(f(a)) / float(v(a))

    hi = _finite_top(g, min(f.domain_max, 1e280 if alpha_hi is None else alpha_hi))
    if float(v(hi)) <= 0:
        raise DomainError("v must be positive")
    if g(hi) * (1 + tol) < eps:
        raise OutOfRangeError("target above the range of kappa/v")
    if g(floor) > eps * (1 + tol):
        raise OutOfRangeError("target below the resolvable range")
    if floor < hi and not float(v(floor)) > float(v(hi)):
        raise DomainError("v must be strictly decreasing (degenerate envelope)")
    alpha, _ = bracketed_roots(g, eps, floor, hi, increasing=True, tol=tol)
    return float(f(alpha)) ** 2


@dataclasses.dataclass(frozen=True)
class PsiProfile:
    """Cached evaluator for psi_kappa with a log-spaced inversion table.

    The table only initializes brackets: each target is bisected inside
    the table cell that holds it, to a few ulps, so cached and direct
    paths agree to the direct path's tolerance.  ``tolerance`` is the
    slack allowed at both ends of the cached range.
    """

    kappa: IndexFunction
    lam_table: np.ndarray
    theta_table: np.ndarray
    tolerance: float = 1e-12

    @classmethod
    def build(
        cls,
        kappa: IndexFunction,
        lam_min: float | None = None,
        lam_max: float | None = None,
        size: int = 1024,
        tolerance: float = 1e-12,
    ) -> "PsiProfile":
        top = min(kappa.domain_max, 1e280)
        hi = _finite_top(lambda t: theta(kappa, t), top) if lam_max is None else lam_max
        lo = _floor(kappa) if lam_min is None else lam_min
        lam = np.geomspace(lo, hi, size)
        th = np.sqrt(lam) * np.asarray(kappa(lam))
        lam.setflags(write=False)
        th.setflags(write=False)
        return cls(kappa=kappa, lam_table=lam, theta_table=th, tolerance=tolerance)

    @property
    def t_max(self) -> float:
        """Largest certified psi argument (range of Theta squared)."""
        top = float(self.theta_table[-1])
        return top * top  # may be inf for unbounded kappa; clamping stays a no-op

    def theta_inverse_many(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if np.any(y > self.theta_table[-1] * (1 + self.tolerance)):
            raise OutOfRangeError("target above the cached Theta range")
        if np.any((y > 0) & (y < self.theta_table[0] * (1 - self.tolerance))):
            raise OutOfRangeError("target below the cached Theta range")
        idx = np.clip(np.searchsorted(self.theta_table, y), 1, len(self.lam_table) - 1)
        lo, hi = self.lam_table[idx - 1], self.lam_table[idx]
        return bracketed_roots(
            lambda t: _theta_in_bracket(self.kappa, t), y, lo, hi, increasing=True
        )[0]

    def eval_many(self, t: np.ndarray, clamp: bool = False) -> np.ndarray:
        """Vectorized psi.  With ``clamp=True`` arguments beyond the certified
        range evaluate at the range edge; since psi is nondecreasing that is a
        lower bound, which keeps downstream inequality checks conservative."""
        t = np.asarray(t, dtype=float)
        if np.any(t < 0):
            raise DomainError("psi argument must be >= 0")
        if clamp:
            t = np.minimum(t, self.t_max)
        out = np.zeros_like(t)
        pos = t > 0
        if np.any(pos):
            lam = self.theta_inverse_many(np.sqrt(t[pos]))
            out[pos] = self.kappa.unchecked(lam) ** 2
        return out

    def eval(self, t: float, clamp: bool = False) -> float:
        return float(self.eval_many(np.atleast_1d(float(t)), clamp=clamp)[0])


_MU_CANDIDATES = np.round(np.arange(0.05, 0.951, 0.05), 2)


@dataclasses.dataclass(frozen=True)
class StructureReport:
    """Grid-certified structure facts about an index function."""

    grid: np.ndarray
    strictly_increasing: bool
    kk_concave: bool
    mu_hat: float | None
    growth_p_hat: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "strictly_increasing": self.strictly_increasing,
            "kk_concave": self.kk_concave,
            "mu_hat": self.mu_hat,
            "growth_p_hat": self.growth_p_hat,
            "passed": self.passed,
            "grid_min": float(self.grid[0]),
            "grid_max": float(self.grid[-1]),
        }


def mu_holds_on_grid(f: IndexFunction, mu: float, grid: np.ndarray) -> bool:
    """Check that t -> kappa(t)^2 / t^(1-mu) is nonincreasing on the grid."""
    return _mu_holds(np.asarray(f(grid)), grid, mu)


def _mu_holds(vals: np.ndarray, grid: np.ndarray, mu: float) -> bool:
    """The mu-condition on the grid from the values ``vals = kappa(grid)``."""
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = vals**2 / grid ** (1 - mu)
        return bool(np.all(np.diff(ratio) <= 1e-9 * np.abs(ratio[:-1])))


def check_structure(f: IndexFunction, grid: Sequence[float]) -> StructureReport:
    """Certify monotonicity, concavity of kappa*kappa, the largest decay
    exponent mu from a fixed candidate list, and the measured growth exponent.

    All checks are grid checks: they certify the sampled points only.
    kappa is evaluated once on the grid of G points; every check then
    costs O(G) time and memory (the mu scan O(G) per candidate).
    """
    grid = np.sort(np.asarray(grid, dtype=float))
    if grid.ndim != 1 or grid.size < 3:
        raise DomainError("grid must contain at least three points")
    if grid[0] <= 0:
        raise DomainError("grid must be strictly positive")
    vals = np.asarray(f(grid))
    inc = bool(np.all(np.diff(vals) > 0))

    with np.errstate(over="ignore", invalid="ignore"):
        kk = vals**2
        slopes = np.diff(kk) / np.diff(grid)
        # nonincreasing chord slopes <=> concave piecewise-linear interpolant
        concave = bool(np.all(np.diff(slopes) <= 1e-9 * np.abs(slopes[:-1]) + 1e-300))

    mu_hat = None
    for mu in _MU_CANDIDATES[::-1]:
        if _mu_holds(vals, grid, float(mu)):
            mu_hat = float(mu)
            break

    # the largest log-log slope over all pairs of grid points: a chord's
    # slope is a mean of the adjacent slopes between its ends weighted
    # by their log-lengths, so no chord exceeds the largest adjacent one
    growth_p = float(np.max(np.diff(np.log(vals)) / np.diff(np.log(grid))))

    return StructureReport(
        grid=grid,
        strictly_increasing=inc,
        kk_concave=concave,
        mu_hat=mu_hat,
        growth_p_hat=growth_p,
        passed=inc and concave,
    )
