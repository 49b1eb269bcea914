"""Per-layer tracing from outside the package.

The tracer replaces each public function listed in ``BINDINGS`` at the
binding site its caller actually uses: ``experiments`` and
``param_choice`` import ``bias``, ``worst_case_error`` and the others by
name, ``regularize`` calls ``noise_generator`` through its own module
global, and methods are patched on their class.  A binding that no
longer exists fails installation loudly.

Every call records a span (layer, start, end, parent) in memory; spans
are written out once, when the run ends.  A layer's busy time is the
union of its spans, its self time the span time not covered by traced
child spans.  Calls are strictly nested because the benchmark pins
SPECREG_THREADS=1, so child coverage is the sum of child durations.
Span times are divided by the speed factor of the ``specreg run`` call
they belong to, so layer times are in the same reference seconds as
the cycle times.

tracemalloc is off in timed traced cycles: ``peak_alloc_mb`` comes from
one extra cycle with ``Tracer.alloc`` set, whose spans are dropped.
"""

from __future__ import annotations

import collections
import functools
import importlib
import statistics
import time
import tracemalloc

import numpy as np

# layer name -> binding sites "module:attribute" or "module:Class.attribute"
BINDINGS = {
    "cli.main": ["cli:main"],
    "cli.config_load": ["experiments:ExperimentConfig.from_json_file"],
    "cli.report_write": [
        "experiments:RateReport.write_rows_csv",
        "experiments:RateReport.write_report_json",
    ],
    "experiments.driver": ["cli:run_experiment"],
    "experiments.fit_rate": ["experiments:fit_rate"],
    "problems.build": ["problems:ProblemDescriptor.build"],
    "problems.kappa_from_lambda": ["problems:kappa_from_lambda"],
    "filters.r": ["filters:FilterMethod.r"],
    "filters.q": ["filters:FilterMethod.q"],
    "regularize.tables": [
        "experiments:bias",
        "experiments:propagation_norm",
        "experiments:variance_trace",
        "param_choice:bias",
        "param_choice:propagation_norm",
        "param_choice:variance_trace",
    ],
    "regularize.worst_case_error": [
        "param_choice:worst_case_error",
        "regularize:worst_case_error",
    ],
    "regularize.error_breakdown": [
        "experiments:error_breakdown",
        "param_choice:error_breakdown",
    ],
    "regularize.mse_monte_carlo": ["experiments:mse_monte_carlo"],
    "spectral.noise_generator": [
        "regularize:noise_generator",
        "spectral:noise_generator",
    ],
    "param_choice.grid_inf_error": [
        "experiments:grid_inf_error",
        "param_choice:grid_inf_error",
    ],
    "param_choice.choose_lepskii": ["param_choice:choose_lepskii"],
    "param_choice.choose_discrepancy": ["param_choice:choose_discrepancy"],
    "index_functions.theta_inverse": [
        "vsc:theta_inverse",
        "param_choice:theta_inverse",
    ],
    "index_functions.PsiProfile.build": ["index_functions:PsiProfile.build"],
    "vsc.decay_to_vsc": ["experiments:decay_to_vsc"],
    "vsc.vsc_falsify": ["experiments:vsc_falsify"],
}

# layer -> (counter, amount to add per call from its args, kwargs and result)
_COUNTED = {
    "regularize.worst_case_error": ("hard_cases", lambda a, k, r: int(r.hard_case)),
    "param_choice.grid_inf_error": (
        "grid_offered", lambda a, k, r: len(k["alphas"] if "alphas" in k else a[3])
    ),
    "regularize.mse_monte_carlo": ("replicates", lambda a, k, r: r.n_replicates),
    "vsc.vsc_falsify": ("probes", lambda a, k, r: r.n_probes),
}

# layers whose peak traced allocation is measured inside each call
_ALLOC = ("vsc.vsc_falsify",)
ALLOC_SITES = [site for layer in _ALLOC for site in BINDINGS[layer]]

# (metric name, unit, better); the order is the BENCHMARK.json order
PER_LAYER = [
    ("regularize.worst_case_error.calls", "count", "lower"),
    ("regularize.worst_case_error.busy_s", "s", "lower"),
    ("regularize.worst_case_error.self_s", "s", "lower"),
    ("regularize.worst_case_error.hard_cases", "count", "lower"),
    ("param_choice.grid_inf_error.calls", "count", "lower"),
    ("param_choice.grid_inf_error.busy_s", "s", "lower"),
    ("param_choice.grid_inf_error.self_s", "s", "lower"),
    ("param_choice.grid_inf_error.prune_survivor_ratio", "ratio", "lower"),
    ("regularize.mse_monte_carlo.busy_s", "s", "lower"),
    ("regularize.mse_monte_carlo.replicates_per_s", "1/s", "higher"),
    ("spectral.noise_generator.calls", "count", "lower"),
    ("param_choice.choose_lepskii.calls", "count", "lower"),
    ("param_choice.choose_lepskii.busy_s", "s", "lower"),
    ("param_choice.choose_discrepancy.busy_s", "s", "lower"),
    ("filters.r.calls", "count", "lower"),
    ("filters.q.calls", "count", "lower"),
    ("filters.rq.busy_s", "s", "lower"),
    ("regularize.tables.calls", "count", "lower"),
    ("regularize.tables.busy_s", "s", "lower"),
    ("regularize.error_breakdown.calls", "count", "lower"),
    ("regularize.error_breakdown.busy_s", "s", "lower"),
    ("vsc.vsc_falsify.busy_s", "s", "lower"),
    ("vsc.vsc_falsify.probes_per_s", "1/s", "higher"),
    ("vsc.vsc_falsify.peak_alloc_mb", "MB", "lower"),
    ("vsc.decay_to_vsc.busy_s", "s", "lower"),
    ("index_functions.PsiProfile.build.busy_s", "s", "lower"),
    ("problems.build.calls", "count", "lower"),
    ("problems.build.busy_s", "s", "lower"),
    ("problems.kappa_from_lambda.calls", "count", "lower"),
    ("problems.kappa_from_lambda.busy_s", "s", "lower"),
    ("index_functions.theta_inverse.calls", "count", "lower"),
    ("cli.config_load.busy_s", "s", "lower"),
    ("cli.report_write.busy_s", "s", "lower"),
    ("experiments.fit_rate.busy_s", "s", "lower"),
    ("experiments.driver.self_s", "s", "lower"),
    ("trace.untraced_cycle_s", "s", "lower"),
    ("trace.traced_cycle_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def _per_cycle(name: str) -> bool:
    """Whether a PER_LAYER metric is computed from each timed traced cycle."""
    return not name.startswith("trace.") and name != "vsc.vsc_falsify.peak_alloc_mb"


def _resolve(site: str):
    """(owner object, attribute name) of a binding site."""
    module_name, _, path = site.partition(":")
    owner = importlib.import_module(f"specreg.{module_name}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    if attr not in vars(owner):
        raise RuntimeError(f"traced binding {site} no longer exists")
    return owner, attr


class Tracer:
    """Spans and counters for one traced run; install() patches, restore() undoes."""

    def __init__(self):
        self.layers = list(BINDINGS)
        self.spans: list[tuple[int, float, float, int]] = []
        self.stack: list[int] = []
        self.binding_calls: collections.Counter = collections.Counter()
        self.counters: collections.Counter = collections.Counter()
        self.peak_alloc = 0
        self.alloc = False  # trace allocation peaks of the _ALLOC layers
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for layer_id, layer in enumerate(self.layers):
            for site in BINDINGS[layer]:
                owner, attr = _resolve(site)
                raw = vars(owner)[attr]
                self._saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(layer_id, site, raw.__func__))
                else:
                    wrapped = self._wrap(layer_id, site, raw)
                setattr(owner, attr, wrapped)

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def _wrap(self, layer_id: int, site: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        layer = self.layers[layer_id]
        counted = _COUNTED.get(layer)
        measured = layer in _ALLOC

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            alloc = measured and self.alloc
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            if alloc:
                tracemalloc.start()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                if alloc:
                    self.peak_alloc = max(self.peak_alloc, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                stack.pop()
                spans[idx] = (layer_id, start, end, parent)
                self.binding_calls[site] += 1
            if counted is not None:
                self.counters[counted[0]] += counted[1](args, kwargs, result)
            return result

        return traced

    def take_cycle(self, first_span: int) -> dict:
        """Counts of the cycle whose spans start at ``first_span``; resets counters.

        Before cycle_metrics, the caller adds ``factors``: the speed factor
        of each ``specreg run`` call of the cycle, in call order.
        """
        cycle = {
            "first_span": first_span,
            "last_span": len(self.spans),
            "binding_calls": dict(self.binding_calls),
            "counters": dict(self.counters),
            "peak_alloc": self.peak_alloc,
        }
        self.binding_calls.clear()
        self.counters.clear()
        self.peak_alloc = 0
        return cycle

    def cycle_metrics(self, cycle: dict) -> dict:
        """Per-layer values of one traced cycle, times in reference seconds."""
        lo, hi = cycle["first_span"], cycle["last_span"]
        arr = np.array(self.spans[lo:hi], dtype=float).reshape(-1, 4)
        lid = arr[:, 0].astype(int)
        start, end = arr[:, 1], arr[:, 2]
        parent = arr[:, 3].astype(int) - lo  # spans never parent across cycles
        has_parent = parent >= 0
        # each top-level span is one `specreg run` call; a parent precedes
        # its children, so one pass gives every span its call's index
        request = [0] * len(lid)
        for i, up in enumerate(parent.tolist()):
            request[i] = request[up] if up >= 0 else i
        calls_in_order = np.cumsum(~has_parent) - 1
        if calls_in_order[-1] + 1 != len(cycle["factors"]):
            raise RuntimeError("traced cycle has not one cli.main span per specreg run")
        factor = np.asarray(cycle["factors"])[calls_in_order[request]]
        dur = (end - start) / factor
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child

        def mask(*layers):
            return np.isin(lid, [self.layers.index(name) for name in layers])

        def busy(*layers):
            # spans are stored in start order: an outermost span starts at or
            # after the end of every earlier span of the same layers, and it
            # lies inside one `specreg run` call
            m = mask(*layers)
            s, e = start[m], end[m]
            if not s.size:
                return 0.0
            prev_end = np.concatenate([[-np.inf], np.maximum.accumulate(e)[:-1]])
            outer = s >= prev_end
            return float(np.sum(dur[m][outer]))

        def calls(layer):
            return int(np.sum(mask(layer)))

        def self_time(layer):
            return float(np.sum(own[mask(layer)]))

        def per_s(count, seconds):
            return count / seconds if seconds > 0 else 0.0

        counters = cycle["counters"]
        wce = self.layers.index("regularize.worst_case_error")
        gie = self.layers.index("param_choice.grid_inf_error")
        survivors = int(np.sum((lid == wce) & has_parent & (lid[np.maximum(parent, 0)] == gie)))
        offered = counters.get("grid_offered", 0)
        special = {
            "regularize.worst_case_error.hard_cases": counters.get("hard_cases", 0),
            "param_choice.grid_inf_error.prune_survivor_ratio": (
                survivors / offered if offered else 0.0
            ),
            "regularize.mse_monte_carlo.replicates_per_s": per_s(
                counters.get("replicates", 0), busy("regularize.mse_monte_carlo")
            ),
            "filters.rq.busy_s": busy("filters.r", "filters.q"),
            "vsc.vsc_falsify.probes_per_s": per_s(
                counters.get("probes", 0), busy("vsc.vsc_falsify")
            ),
        }
        # every other metric is <layer>.<calls|busy_s|self_s>
        by_kind = {"calls": calls, "busy_s": busy, "self_s": self_time}
        out = {}
        for name, _unit, _better in PER_LAYER:
            if name in special:
                out[name] = special[name]
            elif _per_cycle(name):
                layer, _, kind = name.rpartition(".")
                out[name] = by_kind[kind](layer)
        return out

    def write_spans(self, path) -> None:
        """One CSV line per span; ``request`` is the id of its cli.main span.

        Times are raw wall-clock seconds of ``time.perf_counter``.
        """
        request = []
        with open(path, "w") as fh:
            fh.write("id,layer,start_s,end_s,parent,request\n")
            for i, (lid, start, end, parent) in enumerate(self.spans):
                request.append(i if parent < 0 else request[parent])
                fh.write(
                    f"{i},{self.layers[lid]},{start:.9f},{end:.9f},{parent},{request[i]}\n"
                )


def summarize(
    tracer: Tracer, cycles: list[dict], expected, untraced_s, traced_s, peak_alloc: int
) -> dict:
    """Per-layer metrics over the traced cycles, after the two self-checks.

    ``peak_alloc`` is the traced allocation peak in bytes of the extra
    cycle with tracemalloc on.

    Coverage: every expected binding is called in every traced cycle.
    Determinism: every traced cycle makes the same calls per binding and
    reaches the same hard cases, grid offers, replicates and probes.
    """
    for n, cycle in enumerate(cycles):
        missing = [site for site in expected if not cycle["binding_calls"].get(site)]
        if missing:
            raise RuntimeError(
                f"traced cycle {n} never called expected bindings: {', '.join(missing)}"
            )
        for key in ("binding_calls", "counters"):
            if cycle[key] != cycles[0][key]:
                raise RuntimeError(
                    f"traced cycle {n} {key} differ from cycle 0: "
                    f"{cycle[key]} != {cycles[0][key]}"
                )
    per_cycle = [tracer.cycle_metrics(c) for c in cycles]
    out = {}
    for name, _unit, _better in PER_LAYER:
        if not _per_cycle(name):
            continue
        values = [m[name] for m in per_cycle]
        # counts were checked equal across cycles above; times vary
        counted = name.endswith((".calls", ".hard_cases"))
        out[name] = values[0] if counted else statistics.median(values)
    out["vsc.vsc_falsify.peak_alloc_mb"] = peak_alloc / 2**20
    untraced = statistics.median(untraced_s)
    traced = statistics.median(traced_s)
    out["trace.untraced_cycle_s"] = untraced
    out["trace.traced_cycle_s"] = traced
    out["trace.overhead_ratio"] = traced / untraced - 1.0
    return out
