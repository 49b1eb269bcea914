"""Experiment drivers: rate sweeps, decay audits, certificates.

Each driver consumes an :class:`ExperimentConfig` and returns a
:class:`RateReport`.  The report embeds the fully resolved configuration
(grids, seeds, truncation notes), so rerunning the same config file
reproduces the report bit for bit.  Reports serialize to a CSV of sweep
rows plus a JSON summary; the command line front end in :mod:`specreg.cli`
is a thin wrapper around these functions.

Four operations are provided:

``deterministic_rate``
    Error versus noise budget delta, either at the oracle alpha (grid
    infimum of the exact worst-case error) or at the alpha picked by a
    parameter choice rule on seeded noisy data.

``white_noise_rate``
    Root mean squared error versus noise level epsilon using the exact
    bias/variance formula, with optional Monte Carlo cross-checks.

``bias_decay``
    Sweeps bias(alpha) / kappa(alpha) and tests boundedness against the
    smoothness-class constant; an unbounded ratio is the converse
    signature of an element outside the class.

``vsc_certificate``
    Builds the variational inequality profile from the smoothness norm,
    stress-tests it against structured perturbation families, and reports
    the implied decay bound round trip.

Truncated fixtures are audited: every row carries the analytic tail norm
of the coefficient family beyond the truncation, and power-law fits use
only rows whose tail stays below 1% of the total error.  Excluded rows
are kept in the CSV.  Constant-band (log law) checks keep all rows and
flag the polluted ones instead: log-rate sweeps necessarily run into the
truncation floor long before the band statistic degrades, and dropping
those rows would silently shorten the certified range.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import functools
import json
import math
import os

import numpy as np

from .errors import COUNT_CEILING, DomainError, field, number, section, whole
from .filters import FilterMethod, filter_from_dict, qualification_constant
from .index_functions import IndexFunction, index_function_from_dict
from .param_choice import (
    a_priori_rule,
    discrepancy_rule,
    grid_inf_error,
    lepskii_rule,
)
from .problems import Fixture, ProblemDescriptor
from .regularize import (
    bias,
    error_breakdown,
    mse_monte_carlo,
    propagation_norm,
    variance_trace,
)
from .spectral import (
    DeterministicNoise,
    SpectralElement,
    WhiteNoise,
    add_noise,
    xtk_norm,
)
from .vsc import decay_to_vsc, vsc_falsify, vsc_to_decay_bound

_POINTS_PER_DECADE = 40
_TAIL_FRACTION = 0.01
_MIN_FIT_ROWS = 4
_MIN_FIT_DECADES = 3.0
_MC_ROW_LIMIT = 3


def _worker_count() -> int:
    raw = os.environ.get("SPECREG_THREADS", "1")
    if not raw.isdecimal():
        raise DomainError(f"SPECREG_THREADS must be a whole number, got {raw!r}")
    return max(1, int(raw))


def _map_rows(fn, items):
    """Row-order-preserving map, threaded when SPECREG_THREADS > 1."""
    n = _worker_count()
    if n == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with concurrent.futures.ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# sweeps and rate models


def _levels(path: str, values, step: int) -> tuple[float, ...]:
    """A nonempty list of positive numbers, strictly increasing (step 1)
    or strictly decreasing (step -1)."""
    if not isinstance(values, (list, tuple, np.ndarray)) or len(values) == 0:
        raise DomainError(f"{path} must be a nonempty list of numbers")
    out = tuple(number(f"{path}[{i}]", v) for i, v in enumerate(values))
    if min(out) <= 0:
        raise DomainError(f"{path} must be positive")
    if any(step * (b - a) <= 0 for a, b in zip(out, out[1:])):
        order = "increasing" if step > 0 else "decreasing"
        raise DomainError(f"{path} must be strictly {order}")
    return out


@dataclasses.dataclass(frozen=True)
class DeterministicSweep:
    """Noise budgets delta, largest first."""

    deltas: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "deltas", _levels("noise.deltas", self.deltas, -1)
        )

    @property
    def levels(self) -> tuple[float, ...]:
        return self.deltas

    def to_dict(self) -> dict:
        return {"kind": "deterministic", "deltas": list(self.deltas)}


@dataclasses.dataclass(frozen=True)
class WhiteNoiseSweep:
    """Noise levels epsilon, largest first, plus the Monte Carlo budget."""

    epsilons: tuple[float, ...]
    replicates: int = 0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(
            self, "epsilons", _levels("noise.epsilons", self.epsilons, -1)
        )
        replicates = whole(
            "noise.replicates", self.replicates, maximum=COUNT_CEILING
        )
        # a Monte Carlo standard error needs two replicates; 0 skips the check
        if replicates == 1:
            raise DomainError("noise.replicates must be 0 or >= 2, got 1")
        object.__setattr__(self, "replicates", replicates)
        object.__setattr__(self, "seed", whole("noise.seed", self.seed))

    @property
    def levels(self) -> tuple[float, ...]:
        return self.epsilons

    def to_dict(self) -> dict:
        return {
            "kind": "white",
            "epsilons": list(self.epsilons),
            "replicates": self.replicates,
            "seed": self.seed,
        }


def sweep_from_dict(d: dict):
    kind = field(section("noise", d), "noise.kind")
    if kind == "deterministic":
        return DeterministicSweep(field(d, "noise.deltas"))
    if kind == "white":
        return WhiteNoiseSweep(
            field(d, "noise.epsilons"),
            replicates=d.get("replicates", 0),
            seed=d.get("seed", 0),
        )
    raise DomainError(f"unknown sweep kind {kind!r}")


@dataclasses.dataclass(frozen=True)
class PowerLaw:
    """Expected error ~ level^expected; fit is a log-log least squares."""

    expected: float
    tolerance: float = 0.05

    def to_dict(self) -> dict:
        return {
            "kind": "power",
            "expected": self.expected,
            "tolerance": self.tolerance,
        }


@dataclasses.dataclass(frozen=True)
class LogLaw:
    """Expected error ~ (ln 1/level)^-beta; checked as a constant band."""

    beta: float
    band_limit: float = 2.0

    def __post_init__(self):
        if not self.beta > 0:
            raise DomainError(f"rate_model.beta must be positive, got {self.beta!r}")
        # the band is a max/min ratio, so a limit below 1 always fails
        if not self.band_limit >= 1:
            raise DomainError(
                f"rate_model.band_limit must be >= 1, got {self.band_limit!r}"
            )

    def to_dict(self) -> dict:
        return {
            "kind": "log",
            "beta": self.beta,
            "band_limit": self.band_limit,
        }


def rate_model_from_dict(d: dict):
    kind = field(section("rate_model", d), "rate_model.kind")
    if kind == "power":
        return PowerLaw(
            number("rate_model.expected", field(d, "rate_model.expected")),
            tolerance=number(
                "rate_model.tolerance", d.get("tolerance", 0.05), above=0
            ),
        )
    if kind == "log":
        return LogLaw(
            number("rate_model.beta", field(d, "rate_model.beta")),
            band_limit=number("rate_model.band_limit", d.get("band_limit", 2.0)),
        )
    raise DomainError(f"unknown rate model {kind!r}")


# ---------------------------------------------------------------------------
# configuration


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """Everything a driver needs, JSON-serializable.

    ``method`` and ``rule`` stay as plain dicts until a problem is built,
    because method defaults (step size, alpha_max) depend on the operator
    norm.  ``alpha_grid`` of None means the default grid for the
    operator/method pair; an explicit grid must be strictly increasing.
    """

    name: str
    operation: str
    problem: ProblemDescriptor
    method: dict
    rule: dict = dataclasses.field(default_factory=lambda: {"kind": "oracle"})
    noise: DeterministicSweep | WhiteNoiseSweep | None = None
    rate_model: PowerLaw | LogLaw | None = None
    alpha_grid: tuple[float, ...] | None = None
    element: dict | None = None
    nu: float = 1.5
    growth_limit: float = 10.0
    mu: float | None = None
    kappa: dict | None = None
    n_probes: int = 10_000
    seed: int = 0
    out_dir: str | None = None

    _OPERATIONS = (
        "deterministic_rate",
        "white_noise_rate",
        "bias_decay",
        "vsc_certificate",
    )

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name or "/" in self.name:
            raise DomainError("config name must be a nonempty path-safe string")
        if self.operation not in self._OPERATIONS:
            raise DomainError(f"unknown operation {self.operation!r}")
        if self.out_dir is not None and not isinstance(self.out_dir, str):
            raise DomainError(f"out_dir must be a string, got {self.out_dir!r}")
        # a falsification search without probes would pass unexamined
        n_probes = whole("n_probes", self.n_probes, 1, COUNT_CEILING)
        object.__setattr__(self, "n_probes", n_probes)
        object.__setattr__(self, "seed", whole("seed", self.seed))
        if self.alpha_grid is not None:
            grid = _levels("alpha_grid", self.alpha_grid, 1)
            object.__setattr__(self, "alpha_grid", grid)
        if isinstance(self.rate_model, PowerLaw) and self.noise is not None:
            levels = np.asarray(self.noise.levels)
            span = math.log10(levels[0] / levels[-1])
            if levels.size < _MIN_FIT_ROWS or span < _MIN_FIT_DECADES - 1e-9:
                raise DomainError(
                    "power-law sweeps need >= 4 levels spanning >= 3 decades"
                )

    def to_dict(self) -> dict:
        d = {
            "name": self.name,
            "operation": self.operation,
            "problem": self.problem.to_dict(),
            "method": dict(self.method),
            "rule": dict(self.rule),
            "nu": self.nu,
            "growth_limit": self.growth_limit,
            "n_probes": self.n_probes,
            "seed": self.seed,
        }
        if self.noise is not None:
            d["noise"] = self.noise.to_dict()
        if self.rate_model is not None:
            d["rate_model"] = self.rate_model.to_dict()
        if self.alpha_grid is not None:
            d["alpha_grid"] = list(self.alpha_grid)
        if self.element is not None:
            d["element"] = dict(self.element)
        if self.mu is not None:
            d["mu"] = self.mu
        if self.kappa is not None:
            d["kappa"] = dict(self.kappa)
        if self.out_dir is not None:
            d["out_dir"] = self.out_dir
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        d = section("config", d)
        return cls(
            name=field(d, "name"),
            operation=field(d, "operation"),
            problem=ProblemDescriptor.from_dict(section("problem", field(d, "problem"))),
            method=section("method", field(d, "method")),
            rule=section("rule", d.get("rule", {"kind": "oracle"})),
            noise=sweep_from_dict(d["noise"]) if "noise" in d else None,
            rate_model=(
                rate_model_from_dict(d["rate_model"])
                if "rate_model" in d
                else None
            ),
            alpha_grid=d.get("alpha_grid"),
            element=section("element", d["element"]) if "element" in d else None,
            nu=number("nu", d.get("nu", 1.5)),
            growth_limit=number("growth_limit", d.get("growth_limit", 10.0)),
            mu=number("mu", d["mu"]) if "mu" in d else None,
            kappa=section("kappa", d["kappa"]) if "kappa" in d else None,
            n_probes=d.get("n_probes", 10_000),
            seed=d.get("seed", 0),
            out_dir=d.get("out_dir"),
        )

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def _resolve_method(spec: dict, op) -> FilterMethod:
    d = dict(spec)
    if d.get("method") == "landweber":
        d.setdefault("op_norm_sq", op.norm_tstar_t)
        d.setdefault("mu_step", 0.9 / op.norm_tstar_t)
    return filter_from_dict(d)


def _resolve_rule(spec: dict, kappa: IndexFunction):
    """Returns (callable rule or None for the oracle, resolved echo dict)."""
    kind = spec.get("kind", "oracle")
    if kind == "oracle":
        return None, {"kind": "oracle"}
    if kind == "a_priori":
        return a_priori_rule(kappa), {"kind": "a_priori"}
    if kind == "discrepancy":
        tau = number("rule.tau", spec.get("tau", 2.0), above=1)
        return discrepancy_rule(tau), {"kind": "discrepancy", "tau": tau}
    if kind == "lepskii":
        c = number("rule.constant", spec.get("constant", 4.0), above=0)
        return lepskii_rule(c), {"kind": "lepskii", "constant": c}
    raise DomainError(f"unknown rule kind {kind!r}")


def _default_span(op, method: FilterMethod) -> tuple[float, float]:
    lo = float(op.eigenvalues[-1]) / 10.0
    hi = float(op.eigenvalues[0]) * 10.0
    if math.isfinite(method.alpha_max):
        hi = max(hi, method.alpha_max)
    hi = min(hi, method.alpha_max)
    if not 0 < lo < hi:
        raise DomainError("degenerate alpha span")
    return lo, hi


def default_alpha_grid(op, method: FilterMethod) -> np.ndarray:
    """Log-uniform grid, 40 points per decade, spanning the spectrum.

    The span is [lam_min / 10, max(alpha_max, 10 lam_max)] clamped to the
    method's alpha_max.  Iterative methods snap each point to the nearest
    admissible 1/k, deduplicated, so the grid stays log-uniform until the
    iteration counts become small.
    """
    lo, hi = _default_span(op, method)
    n = int(math.ceil(math.log10(hi / lo) * _POINTS_PER_DECADE)) + 1
    grid = np.geomspace(lo, hi, n)
    if method.snaps_to_iteration_grid:
        ks = np.unique(np.maximum(np.round(1.0 / grid), 1.0))
        grid = np.sort(1.0 / ks)
        grid = grid[(grid >= lo * (1 - 1e-12)) & (grid <= method.alpha_max)]
        if grid.size == 0:
            raise DomainError("no admissible iteration counts in the span")
    return grid


def _resolve_alphas(cfg: ExperimentConfig, op, method: FilterMethod):
    if cfg.alpha_grid is None:
        return default_alpha_grid(op, method)
    grid = np.asarray(cfg.alpha_grid, dtype=float)
    if np.any(grid > method.alpha_max * (1 + 1e-12)):
        raise DomainError("alpha grid exceeds the method's alpha_max")
    return np.sort(grid)


# ---------------------------------------------------------------------------
# elements and truncation tails


def resolve_element(cfg: ExperimentConfig, fixture: Fixture):
    """Apply the optional element override to the fixture's solution;
    returns (element, tail_norm).

    ``coefficient_power`` rebuilds the coefficients (1 v f)^(-p) over the
    fixture's slot frequencies, so p equal to the fixture exponent gives
    back the fixture itself; ``range_power`` applies (T*T)^s to it.
    ``tail_norm`` bounds the l2 mass of the coefficient family beyond the
    fixture truncation, the quantity the 1% row audit compares against
    the total error.
    """
    spec = cfg.element
    if spec is None:
        return fixture.x, fixture.tail_norm()
    kind = spec.get("kind")
    if kind == "coefficient_power":
        p = number("element.p", field(spec, "element.p"))
        return fixture.element(p), fixture.tail_norm(p)
    if kind == "range_power":
        # x = (T*T)^s applied to the fixture element; the dropped modes sit
        # below the smallest kept eigenvalue, so lam_min^s scales the tail
        s = number("element.s", field(spec, "element.s"), above=0)
        op = fixture.op
        coeff = fixture.x.coefficients * op.slot_eigenvalues**s
        lam_min = float(op.eigenvalues[-1])
        return fixture.x.with_coefficients(coeff), fixture.tail_norm() * lam_min**s
    raise DomainError(f"unknown element override {kind!r}")


def _resolve_problem(cfg: ExperimentConfig):
    """Build the configured fixture; returns (op, kappa, element, tail_norm).

    The fixture itself is not kept: holding its slot-sized label array
    through a circle N=10k oracle sweep left glibc trimming the heap top
    under the solves' temporaries, 10k-28k extra minor page faults per
    run.
    """
    fixture = cfg.problem.build()
    x, tail = resolve_element(cfg, fixture)
    return fixture.op, fixture.kappa, x, tail


# ---------------------------------------------------------------------------
# rows, fits, reports


@dataclasses.dataclass(frozen=True)
class RateRow:
    level: float
    alpha: float
    bias: float
    noise_term: float
    total: float
    tail_bound: float

    @property
    def tail_ok(self) -> bool:
        return self.tail_bound < _TAIL_FRACTION * self.total

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class FitResult:
    model: str
    value: float
    residual: float
    n_rows: int
    detail: dict

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "value": self.value,
            "residual": self.residual,
            "n_rows": self.n_rows,
            "detail": dict(self.detail),
        }


def fit_rate(levels, errors, model) -> FitResult:
    """Fit the error-versus-level law.

    Power law: least squares slope of log error against log level, with
    the root mean square log residual.  Log law: the band ratio
    max/min of error * (ln 1/level)^beta; a ratio of 1 means the law is
    exact on the sampled range.
    """
    lv = np.asarray(levels, dtype=float)
    er = np.asarray(errors, dtype=float)
    if lv.shape != er.shape or lv.ndim != 1:
        raise DomainError("levels and errors must be aligned 1-d arrays")
    if lv.size < _MIN_FIT_ROWS:
        raise DomainError(
            f"fit needs at least {_MIN_FIT_ROWS} rows, got {lv.size}"
        )
    if np.any(lv <= 0) or np.any(er <= 0):
        raise DomainError("levels and errors must be positive")
    if isinstance(model, PowerLaw):
        x = np.log(lv)
        y = np.log(er)
        span = (x.max() - x.min()) / math.log(10.0)
        if span < 1e-9:
            raise DomainError("degenerate level spread")
        design = np.column_stack([x, np.ones_like(x)])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        resid = y - design @ coef
        return FitResult(
            model="power",
            value=float(coef[0]),
            residual=float(np.sqrt(np.mean(resid**2))),
            n_rows=lv.size,
            detail={"intercept": float(coef[1]), "decades": float(span)},
        )
    if isinstance(model, LogLaw):
        if np.any(lv >= 1):
            raise DomainError("log-law levels must lie below 1")
        vals = er * np.log(1.0 / lv) ** model.beta
        band = float(vals.max() / vals.min())
        return FitResult(
            model="log",
            value=band,
            residual=float(np.std(np.log(vals))),
            n_rows=lv.size,
            detail={
                "constant": float(np.exp(np.mean(np.log(vals)))),
                "min": float(vals.min()),
                "max": float(vals.max()),
            },
        )
    raise DomainError(f"unknown rate model {type(model).__name__}")


@dataclasses.dataclass(frozen=True)
class Verdict:
    name: str
    passed: bool
    detail: dict

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "detail": _jsonable(self.detail),
        }


@dataclasses.dataclass(frozen=True)
class RateReport:
    kind: str
    rows: tuple[RateRow, ...]
    fit: FitResult | None
    verdicts: tuple[Verdict, ...]
    config: dict
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def verdict_lines(self) -> list[str]:
        return [
            f"[{'PASS' if v.passed else 'FAIL'}] {v.name}"
            for v in self.verdicts
        ]

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "passed": self.passed,
            "fit": self.fit.to_dict() if self.fit is not None else None,
            "verdicts": [v.to_dict() for v in self.verdicts],
            "notes": list(self.notes),
            "config": _jsonable(self.config),
            "rows": [r.to_dict() for r in self.rows],
        }

    def write_rows_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("level,alpha,bias,noise_term,total,tail_bound\n")
            for r in self.rows:
                fh.write(
                    ",".join(
                        f"{v:.17g}"
                        for v in (
                            r.level,
                            r.alpha,
                            r.bias,
                            r.noise_term,
                            r.total,
                            r.tail_bound,
                        )
                    )
                    + "\n"
                )

    def write_report_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj]
    return obj


def _resolved_config(cfg: ExperimentConfig, op, method, rule_echo, alphas=None):
    """The config as run, with method constants, rule parameters and the
    fixture's truncation note resolved.

    An explicit alpha grid is echoed as given.  The default grid
    ``alphas`` of a run is echoed by its spec (ends, points per decade,
    count, iteration snapping) rather than point by point; ``from_dict``
    ignores the spec, so the echo rebuilds the same grid.
    """
    d = cfg.to_dict()
    d["method"] = method.to_dict()
    d["rule"] = rule_echo
    if alphas is not None and cfg.alpha_grid is None:
        lo, hi = _default_span(op, method)
        d["alpha_grid_spec"] = {
            "lo": lo,
            "hi": hi,
            "points_per_decade": _POINTS_PER_DECADE,
            "count": int(alphas.size),
            "snaps_to_iterations": method.snaps_to_iteration_grid,
        }
    d["truncation_note"] = op.truncation_note
    return d


def _fit_with_audit(rows, model, notes):
    """Power fits use tail-clean rows only; band checks keep every row."""
    flagged = [r.level for r in rows if not r.tail_ok]
    if isinstance(model, PowerLaw):
        clean = [r for r in rows if r.tail_ok]
        if flagged:
            notes.append(
                "tail audit excluded levels "
                + ", ".join(f"{v:g}" for v in flagged)
            )
        if len(clean) < _MIN_FIT_ROWS:
            return None, Verdict(
                "rate_fit",
                False,
                {
                    "reason": "fit refused: fewer than 4 tail-clean rows",
                    "clean_rows": len(clean),
                },
            )
        levels = [r.level for r in clean]
        span = math.log10(max(levels) / min(levels))
        if span < _MIN_FIT_DECADES - 1e-9:
            return None, Verdict(
                "rate_fit",
                False,
                {
                    "reason": "fit refused: tail-clean rows span < 3 decades",
                    "decades": span,
                },
            )
        fit = fit_rate(levels, [r.total for r in clean], model)
        ok = abs(fit.value - model.expected) <= model.tolerance
        return fit, Verdict(
            "rate_fit",
            ok,
            {
                "fitted": fit.value,
                "expected": model.expected,
                "tolerance": model.tolerance,
                "residual": fit.residual,
            },
        )
    if isinstance(model, LogLaw):
        if flagged:
            notes.append(
                "tail audit flagged levels (kept for the band check) "
                + ", ".join(f"{v:g}" for v in flagged)
            )
        fit = fit_rate(
            [r.level for r in rows], [r.total for r in rows], model
        )
        ok = fit.value <= model.band_limit
        detail = {
            "band": fit.value,
            "band_limit": model.band_limit,
            "beta": model.beta,
        }
        if flagged:
            detail["tail_flagged_levels"] = flagged
        return fit, Verdict("rate_fit", ok, detail)
    raise DomainError("sweep drivers need a rate model")


# ---------------------------------------------------------------------------
# drivers


def run_rate(cfg: ExperimentConfig) -> RateReport:
    """Error against the noise level at oracle or rule-chosen alpha.

    ``deterministic_rate`` sweeps the worst-case error over delta balls,
    ``white_noise_rate`` the exact root mean squared error over epsilon,
    with Monte Carlo spot checks.  Both read the grid's bias and unit
    noise tables (||R_alpha|| for delta, sqrt(trace) for epsilon).
    """
    kind = cfg.operation
    white = kind == "white_noise_rate"
    if not isinstance(cfg.noise, WhiteNoiseSweep if white else DeterministicSweep):
        label = "white noise" if white else "deterministic"
        raise DomainError(f"{kind} needs a {label} sweep")
    if cfg.rate_model is None:
        raise DomainError(f"{kind} needs a rate model")
    op, kappa, x, tail = _resolve_problem(cfg)
    method = _resolve_method(cfg.method, op)
    rule, rule_echo = _resolve_rule(cfg.rule, kappa)
    alphas = _resolve_alphas(cfg, op, method)
    notes: list[str] = []
    verdicts = []

    bias_arr = bias(method, alphas, x)
    if white:
        unit_arr = np.sqrt(variance_trace(method, alphas, op))
        # precondition: the variance envelope must behave on the grid
        # before any rate is read off; sqrt(trace) is positive, finite and
        # nonincreasing in alpha for every admissible filter
        env_ok = (
            bool(np.all(np.isfinite(unit_arr)))
            and bool(np.all(unit_arr > 0))
            and bool(np.all(np.diff(unit_arr) <= 1e-9 * unit_arr[:-1]))
        )
        verdicts.append(
            Verdict(
                "variance_envelope",
                env_ok,
                {
                    "sd_at_alpha_min": float(unit_arr[0]),
                    "sd_at_alpha_max": float(unit_arr[-1]),
                },
            )
        )
        if not env_ok:
            raise DomainError("variance trace is not a certified envelope")
        noise_at = functools.partial(WhiteNoise, seed=cfg.noise.seed)
    else:
        unit_arr = propagation_norm(method, alphas, op)
        noise_at = DeterministicNoise

    def oracle_row(level: float) -> RateRow:
        choice, value = grid_inf_error(
            method, x, noise_at(level), alphas, bias_arr=bias_arr, prop_arr=unit_arr
        )
        i = choice.index
        return RateRow(
            level=level,
            alpha=choice.alpha,
            bias=float(bias_arr[i]),
            noise_term=float(unit_arr[i]) * level,
            total=value,
            tail_bound=tail,
        )

    g = x.with_coefficients(np.sqrt(op.slot_eigenvalues) * x.coefficients)

    def rule_row(item) -> RateRow:
        idx, level = item
        noise = noise_at(level)
        # the data dies with the rule call, before the row is scored
        choice = rule(
            method, add_noise(g, noise, replicate=idx), noise, alphas, x_true=x
        )
        bd = error_breakdown(method, choice.alpha, x, noise)
        return RateRow(
            level=level,
            alpha=choice.alpha,
            bias=bd.bias,
            noise_term=bd.noise_term,
            total=bd.total,
            tail_bound=tail,
        )

    levels = list(cfg.noise.levels)
    if rule is None:
        rows = tuple(_map_rows(oracle_row, levels))
    else:
        rows = tuple(_map_rows(rule_row, list(enumerate(levels))))

    fit, fit_verdict = _fit_with_audit(rows, cfg.rate_model, notes)
    verdicts.append(fit_verdict)
    if white and cfg.noise.replicates:
        verdicts.append(_mc_agreement(method, x, rows, cfg.noise))
    if not white and rule is None:
        # the oracle error is an infimum of pointwise nondecreasing maps
        totals = np.array([r.total for r in rows])[::-1]
        verdicts.append(
            Verdict(
                "oracle_monotone",
                bool(np.all(np.diff(totals) >= -1e-12 * totals[:-1])),
                {"totals_ascending_delta": list(totals)},
            )
        )
    return RateReport(
        kind=kind,
        rows=rows,
        fit=fit,
        verdicts=tuple(verdicts),
        config=_resolved_config(cfg, op, method, rule_echo, alphas),
        notes=tuple(notes),
    )


def _mc_agreement(method, x, rows, sweep: WhiteNoiseSweep) -> Verdict:
    """Monte Carlo mean squared error within 3 standard errors of the
    exact one on up to three rows: first, middle and last."""
    picks = sorted({0, len(rows) // 2, len(rows) - 1})[:_MC_ROW_LIMIT]
    picked = [rows[i] for i in picks]
    est = mse_monte_carlo(
        method,
        np.array([row.alpha for row in picked]),
        x,
        [WhiteNoise(row.level, seed=sweep.seed) for row in picked],
        sweep.replicates,
    )
    mc_detail = []
    mc_ok = True
    for row, mc_ms, se in zip(
        picked, est.mean_squared.tolist(), est.se_mean_squared.tolist()
    ):
        # numpy powers round as float powers do but overflow to inf
        with np.errstate(over="ignore"):
            exact_ms = float(
                np.float64(row.bias) ** 2 + np.float64(row.noise_term) ** 2
            )
        gap = abs(mc_ms - exact_ms)
        ok = gap <= 3.0 * se
        mc_ok = mc_ok and ok
        mc_detail.append(
            {
                "level": row.level,
                "exact_mse": exact_ms,
                "mc_mse": mc_ms,
                "se": se,
                "within_3se": ok,
            }
        )
    return Verdict(
        "mc_agreement",
        mc_ok,
        {"replicates": sweep.replicates, "rows": mc_detail},
    )


def run_bias_decay(cfg: ExperimentConfig) -> RateReport:
    """Sweep bias(alpha) / kappa(alpha) and test boundedness.

    Refuses to run when the method's qualification cannot cover
    kappa^nu for the configured nu > 1: the per-alpha suprema of
    r_alpha(lam) kappa(lam)^nu / kappa(alpha)^nu then diverge as alpha
    shrinks and no bounded-ratio conclusion is meaningful.  For elements
    inside the smoothness class the sup ratio is checked against the
    class constant; ratio growth beyond ``growth_limit`` is the converse
    verdict that the element lies outside.
    """
    if cfg.nu <= 1:
        raise DomainError("bias decay needs nu > 1")
    op, kappa, x, tail = _resolve_problem(cfg)
    method = _resolve_method(cfg.method, op)
    alphas = _resolve_alphas(cfg, op, method)

    dm = kappa.domain_max * (1 - 1e-12)
    sweep = alphas[alphas <= dm]
    if sweep.size < _MIN_FIT_ROWS:
        raise DomainError("alpha sweep too short inside the kappa domain")
    qual_alphas = np.geomspace(sweep[0], sweep[-1], 60)
    qual = qualification_constant(
        method, kappa, cfg.nu, qual_alphas, op.eigenvalues
    )
    if qual.diverging or not math.isfinite(qual.value):
        raise DomainError(
            "qualification insufficient for kappa^nu: per-alpha supremum "
            f"reaches {qual.value:.4g} at alpha={qual.alphas[0]:.4g} and "
            "grows as alpha shrinks; pick a method with higher "
            "qualification or a smaller nu"
        )

    kap_vals = np.asarray(kappa(sweep))
    bias_arr = bias(method, sweep, x)
    ratios = bias_arr / kap_vals

    # descending alpha, so "growth across the sweep" reads left to right
    rows = tuple(
        RateRow(
            level=float(a),
            alpha=float(a),
            bias=float(b),
            noise_term=0.0,
            total=float(b),
            tail_bound=tail,
        )
        for a, b in zip(sweep[::-1], bias_arr[::-1])
    )
    r_desc = ratios[::-1]
    prefix_min = np.minimum.accumulate(r_desc)
    growth = float(np.max(r_desc / prefix_min))
    a_hat = float(np.max(ratios))

    # class constant: A^2 <= B ||x||^2 / kappa(||T||^2)
    #                      + ||x||_kappa^2 (1 + B^(1/nu) nu C^((nu-1)/nu) / (nu-1))
    norm_x = x.norm()
    xtk = xtk_norm(x, kappa)
    b_hat = qual.value
    c_d = method.c_diag
    kap_at_norm = float(kappa(min(op.norm_tstar_t, dm)))
    bound_sq = b_hat * norm_x**2 / kap_at_norm + xtk**2 * (
        1.0 + b_hat ** (1.0 / cfg.nu) * cfg.nu * c_d ** ((cfg.nu - 1) / cfg.nu) / (cfg.nu - 1)
    )
    bound = math.sqrt(bound_sq)

    verdicts = (
        Verdict(
            "qualification",
            True,
            {"B": b_hat, "nu": cfg.nu, "diverging": qual.diverging},
        ),
        Verdict(
            "bounded_by_class_constant",
            a_hat <= bound,
            {"sup_ratio": a_hat, "class_bound": bound, "xtk_norm": xtk},
        ),
        Verdict(
            "ratio_growth",
            growth < cfg.growth_limit,
            {"growth": growth, "growth_limit": cfg.growth_limit},
        ),
    )
    return RateReport(
        kind="bias_decay",
        rows=rows,
        fit=None,
        verdicts=verdicts,
        config=_resolved_config(cfg, op, method, {"kind": "none"}, alphas),
        notes=(
            "rows sweep alpha itself; level column is alpha",
            "ratio statistics use the full sweep: the truncated fixture "
            "understates the infinite-problem ratio, so growth seen here "
            "is genuine",
        ),
    )


def run_vsc_certificate(cfg: ExperimentConfig) -> RateReport:
    """Norm -> variational profile -> falsification -> decay round trip.

    Structure failures of kappa (monotonicity, concavity of
    kappa * kappa, the mu-condition) do not raise: they are listed in the
    report and the certificate is marked failed, since diagnosing an
    inadmissible index is a legitimate outcome of the run.
    """
    op, kappa, x, _tail = _resolve_problem(cfg)
    method = _resolve_method(cfg.method, op)
    if cfg.kappa is not None:
        kappa = index_function_from_dict(cfg.kappa)
    if cfg.mu is None:
        raise DomainError("vsc_certificate needs mu in (0, 1)")
    config = _resolved_config(cfg, op, method, {"kind": "none"})
    try:
        profile = decay_to_vsc(x, op, kappa, cfg.mu)
    except DomainError as exc:
        return RateReport(
            kind="vsc_certificate",
            rows=(),
            fit=None,
            verdicts=(
                Verdict("structure", False, {"failure": str(exc)}),
            ),
            config=config,
            notes=("certificate refused: index structure checks failed",),
        )

    report = vsc_falsify(
        x, op, profile, n_probes=cfg.n_probes, seed=cfg.seed
    )

    lam_grid = np.geomspace(
        float(op.eigenvalues[-1]), float(op.eigenvalues[0]), 64
    )
    dm = profile.kappa.domain_max * (1 - 1e-12)
    lam_grid = lam_grid[lam_grid <= dm]
    inflations = np.array(
        [
            vsc_to_decay_bound(profile, float(l), profile.kappa)
            / float(profile.kappa(l))
            for l in lam_grid
        ]
    )
    verdicts = (
        Verdict("structure", True, {"mu": cfg.mu}),
        Verdict(
            "no_witness",
            report.passed,
            {
                "n_probes": report.n_probes,
                "worst_residual": report.worst_residual,
                "worst_family": report.worst_family,
            },
        ),
        Verdict(
            "round_trip",
            bool(np.all(np.isfinite(inflations)) and np.all(inflations >= 1.0 - 1e-9)),
            {
                "inflation_max": float(inflations.max()),
                "inflation_min": float(inflations.min()),
            },
        ),
    )
    return RateReport(
        kind="vsc_certificate",
        rows=(),
        fit=None,
        verdicts=verdicts,
        config=config,
        notes=(
            f"xtk_norm={profile.scale:.17g}",
            f"A={profile.A:.17g}",
            f"family_a_floor={profile.family_a_floor:.17g}",
        ),
    )


_DRIVERS = {
    "deterministic_rate": run_rate,
    "white_noise_rate": run_rate,
    "bias_decay": run_bias_decay,
    "vsc_certificate": run_vsc_certificate,
}


def run_experiment(cfg: ExperimentConfig) -> RateReport:
    return _DRIVERS[cfg.operation](cfg)
