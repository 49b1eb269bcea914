"""specreg benchmark: one workload of `specreg run` configs in a closed loop.

Usage (from the repository root):

    python3 perfbench/run.py --workload det_oracle --seed 0 --seconds 25 --trace 0

One client runs ``specreg.cli.main(["run", config])`` for one config at a
time, in this process, over the workload's generated config files; one
pass over them is a cycle.  The first cycle is a warm-up and is not
timed.  Every run is checked against the committed reference outcome
(exit code, verdicts and their details, rows and fit value) of its
input seed.

Every timed run is rescaled to the reference machine speed with
harness.SpeedScale; the detail line keeps the raw wall times as well.

--trace 0 reports the end-to-end metrics: ``cycle_s`` (median timed
cycle), ``peak_rss_mb`` (ru_maxrss of this process) and ``setup_s``
(median time of fresh interpreters that import specreg and load every
config, each timed against reference launches beside it).  --trace 1
alternates untraced and traced cycles and reports per-layer metrics (see
tracing.py) and the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it holds the
details (machine facts, cycle count and spread, per-config medians,
fail ratio, the first failures).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import harness

SETUP_LAUNCHES = 15
MIN_TIMED = 3
MIN_TRACED = 2
PROBE = harness.ROOT / "perfbench" / "setup_probe.py"
# a fresh interpreter that imports numpy, the bulk of specreg's own import
REFERENCE_LAUNCH = ["-c", "import numpy"]
# its duration on the host the baseline was measured on, at the speed
# where harness.speed_probe() takes harness.PROBE_REF_S
REFERENCE_LAUNCH_S = 0.16


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _launch(args) -> float:
    """Wall seconds of one fresh interpreter, from launch to exit."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=120,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"launch of {args[0]} failed:\n{proc.stderr}")
    return elapsed


def measure_setup(paths) -> tuple[float, dict]:
    """Median set-up time in reference seconds, and its raw wall figures.

    Set-up launches alternate with reference launches of the same kind
    (interpreter start, numpy import).  Each set-up launch is divided by
    the mean of the two reference launches beside it, which follow the
    host's speed far more closely than the short compute probe does.
    """
    setup_args = [str(PROBE), str(harness.SRC), *map(str, paths)]
    before = _launch(REFERENCE_LAUNCH)
    walls, ratios = [], []
    for _ in range(SETUP_LAUNCHES):
        wall = _launch(setup_args)
        after = _launch(REFERENCE_LAUNCH)
        walls.append(wall)
        ratios.append(wall / (0.5 * (before + after)))
        before = after
    detail = {
        "setup_wall_median_s": statistics.median(walls),
        "setup_ratio_median": statistics.median(ratios),
    }
    return statistics.median(ratios) * REFERENCE_LAUNCH_S, detail


class Loop:
    """Runs cycles over the config files and checks every run."""

    def __init__(self, cli, paths, ref, scale):
        self.cli = cli
        self.paths = paths
        self.ref = ref
        self.scale = scale
        self.attempted = 0
        self.failures: list[str] = []
        self.wall_s = {p.stem: [] for p in paths}
        self.cycle_wall_s: list[float] = []

    def cycle(self, record: bool = True) -> list[int]:
        """One pass over the configs; the SpeedScale index of each run.

        ``record`` keeps the raw wall times for the detail line.
        """
        runs = []
        for path in self.paths:
            self.attempted += 1
            start = time.perf_counter()
            try:
                code = harness.run_config(self.cli, path)
                elapsed = time.perf_counter() - start
                why = harness.mismatch(harness.outcome(path, code), self.ref[path.stem])
            except Exception:
                elapsed = time.perf_counter() - start
                why = "raised\n" + traceback.format_exc()
            runs.append(self.scale.add(elapsed))
            if record:
                self.wall_s[path.stem].append(elapsed)
            if why:
                self.failures.append(f"{path.stem}: {why}")
                print(f"FAILED {path.stem}: {why}", file=sys.stderr)
        if record:
            self.cycle_wall_s.append(self.scale.wall(runs))
        return runs


def _more(walls: list[float], minimum: int, deadline: float) -> bool:
    """Whether to start another cycle, given the wall times of those done."""
    if len(walls) < minimum:
        return True
    return time.perf_counter() + statistics.median(walls) <= deadline


def untraced_run(loop: Loop, seconds: float, setup_s: float):
    deadline = time.perf_counter() + seconds
    loop.cycle(record=False)  # warm-up
    cycles = []
    while _more(loop.cycle_wall_s, MIN_TIMED, deadline):
        cycles.append(loop.cycle())
    times = [loop.scale.seconds(runs) for runs in cycles]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "cycle_s": (statistics.median(times), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }
    return metrics, _cycle_detail(times)


def traced_run(loop: Loop, seconds: float, workload, spans_path):
    import tracing

    deadline = time.perf_counter() + seconds
    loop.cycle(record=False)  # warm-up
    tracer = tracing.Tracer()
    scale = loop.scale
    untraced, traced, cycles = [], [], []
    pair: list[float] = []
    while _more(pair, MIN_TRACED, deadline):
        untraced.append(loop.cycle())
        first = len(tracer.spans)
        tracer.install()
        try:
            traced.append(loop.cycle(record=False))
        finally:
            tracer.restore()
        cycles.append(tracer.take_cycle(first))
        pair.append(scale.wall(untraced[-1]) + scale.wall(traced[-1]))
    peak_alloc = 0
    if any(cycles[0]["binding_calls"].get(site) for site in tracing.ALLOC_SITES):
        # tracemalloc slows the calls it watches, so it gets a cycle of its own
        first = len(tracer.spans)
        tracer.alloc = True
        tracer.install()
        try:
            loop.cycle(record=False)
        finally:
            tracer.restore()
        peak_alloc = tracer.take_cycle(first)["peak_alloc"]
        del tracer.spans[first:]
    tracer.write_spans(spans_path)
    for cycle, runs in zip(cycles, traced):
        cycle["factors"] = [scale.factor(i) for i in runs]
    traced = [scale.seconds(runs) for runs in traced]
    untraced = [scale.seconds(runs) for runs in untraced]
    values = tracing.summarize(
        tracer, cycles, workload.expected, untraced, traced, peak_alloc
    )
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    metrics = {name: (values[name], units[name]) for name in units}
    return metrics, _cycle_detail(traced)


def _cycle_detail(times: list[float]) -> dict:
    """Cycle count and spread.

    A run times 6-19 cycles, too few for a p90; the slowest cycle, read
    with the count, is the highest percentile it supports.
    """
    return {"cycles": len(times), "cycle_min_s": min(times), "cycle_max_s": max(times)}


def main(argv=None) -> int:
    args = parse_args(argv)
    harness.pin_environment()
    cli = harness.import_specreg()
    from workloads import INPUT_SEEDS, WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    input_seed = args.seed % INPUT_SEEDS
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = harness.WORK / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    scale = harness.SpeedScale()
    try:
        paths = workload.write_configs(work, input_seed)
        loop = Loop(cli, paths, harness.reference(workload.name, input_seed), scale)
        if args.trace:
            metrics, detail = traced_run(
                loop, args.seconds, workload, harness.WORK / f"{tag}.spans.csv"
            )
        else:
            setup_s, setup_detail = measure_setup(paths)
            metrics, detail = untraced_run(loop, args.seconds, setup_s)
            detail.update(setup_detail)
    finally:
        shutil.rmtree(work)

    failed = len(loop.failures)
    detail = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "input_seed": input_seed,
        "trace": args.trace,
        "machine": harness.machine_facts(),
        **detail,
        "speed_factor_median": statistics.median(
            map(scale.factor, range(len(scale.walls)))
        ),
        "cycle_wall_median_s": statistics.median(loop.cycle_wall_s),
        "per_config_wall_median_s": {k: statistics.median(v) for k, v in loop.wall_s.items()},
        "fail_ratio": failed / loop.attempted,
        "failures": loop.failures[:5],
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
