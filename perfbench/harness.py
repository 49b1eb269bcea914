"""Shared pieces of the benchmark: environment, import, one run, its check."""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCES = Path(__file__).resolve().parent / "references"

# numbers in an outcome may move by this relative amount (last-ulp changes
# from a reordered sum); verdicts and exit codes must match exactly
RTOL = 1e-9

_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Duration of speed_probe() on the 2-core box the baseline was measured on.
PROBE_REF_S = 0.020
# Probes this close to an interval's centre, in seconds, set its speed.
WINDOW_S = 2.0


def pin_environment() -> None:
    """One row worker, and no more BLAS threads than usable cores.

    Must run before numpy is imported, which reads these variables once.
    """
    cores = len(os.sched_getaffinity(0))
    os.environ["SPECREG_THREADS"] = "1"
    for var in _BLAS_VARS:
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = 0
        os.environ[var] = str(min(current, cores) if current > 0 else cores)


def import_specreg():
    """Import the package from this checkout's src, never from elsewhere."""
    if not (SRC / "specreg" / "__init__.py").is_file():
        raise SystemExit(f"no specreg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import specreg
    import specreg.cli

    if Path(specreg.__file__).resolve().parent != SRC / "specreg":
        raise SystemExit(f"imported specreg from {specreg.__file__}, not {SRC}")
    return specreg.cli


def machine_facts() -> dict:
    import numpy

    return {
        "cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "specreg_threads": int(os.environ["SPECREG_THREADS"]),
    }


def speed_probe() -> float:
    """Seconds for a fixed mix of interpreter-bound and numpy work (~20 ms).

    The code is the benchmark's own, so a change to specreg cannot move it;
    only the speed of the machine does.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    big, small = rng.random(20_000), rng.random(30)
    start = time.perf_counter()
    acc = 0.0
    for i in range(20_000):
        acc += math.sqrt(i * 0.5) / (i + 1.0)
    for i in range(2_000):
        acc += float(np.sum(small / (small + i)))
    for i in range(100):
        acc += float(np.sum(big / (big + i) ** 2))
    return time.perf_counter() - start


class SpeedScale:
    """Rescales wall times to the reference machine speed.

    The shared host this benchmark was built on changes speed by up to
    +-20% over seconds to minutes, which moves every wall time with it.
    A speed probe runs before the first timed interval and after each
    one.  One probe reading is mostly noise (adjacent readings correlate
    by about 0.35), so an interval's speed factor is the mean of every
    probe within WINDOW_S of its centre, the two bracketing it included,
    over PROBE_REF_S.  Its wall time over that factor is seconds at the
    reference speed.  Factors are computed once the run's probes are in.
    """

    def __init__(self):
        self.probes: list[tuple[float, float]] = []  # (start time, duration)
        self.walls: list[float] = []
        self._probe()

    def _probe(self) -> None:
        start = time.perf_counter()
        self.probes.append((start, speed_probe()))

    def add(self, wall_s: float) -> int:
        """Record an interval of ``wall_s`` that just ended; return its index."""
        self._probe()
        self.walls.append(wall_s)
        return len(self.walls) - 1

    def factor(self, i: int) -> float:
        t0, t1 = self.probes[i][0], self.probes[i + 1][0]
        centre, reach = 0.5 * (t0 + t1), max(WINDOW_S, 0.5 * (t1 - t0))
        took = [d for t, d in self.probes if abs(t - centre) <= reach]
        return sum(took) / len(took) / PROBE_REF_S

    def wall(self, indices) -> float:
        return sum(self.walls[i] for i in indices)

    def seconds(self, indices) -> float:
        """Reference seconds of the intervals."""
        return sum(self.walls[i] / self.factor(i) for i in indices)


def run_config(cli, path: Path) -> int:
    """``specreg run <path>`` in this process, its console output discarded."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(["run", str(path)])


def outcome(path: Path, exit_code: int) -> dict:
    """What a run is checked on: exit code, verdicts with their details,
    rows and fit value."""
    out = {"exit_code": exit_code}
    if exit_code == 2:
        return out  # refused: no report is written
    cfg = json.loads(path.read_text())
    report = json.loads((Path(cfg["out_dir"]) / f"{cfg['name']}.report.json").read_text())
    out["verdicts"] = [[v["name"], v["passed"]] for v in report["verdicts"]]
    out["details"] = [v["detail"] for v in report["verdicts"]]
    out["rows"] = [
        [r[k] for k in ("level", "alpha", "bias", "noise_term", "total", "tail_bound")]
        for r in report["rows"]
    ]
    out["fit"] = None if report["fit"] is None else report["fit"]["value"]
    return out


def mismatch(got, want, where: str = "") -> str | None:
    """Where ``got`` differs from the reference ``want``, or None.

    Numbers match within RTOL; everything else (exit codes, flags,
    names, keys, lengths) must be equal.
    """
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return f"{where} keys {sorted(got)} != {sorted(want)}"
        pairs = [(f"{where}.{k}", got[k], want[k]) for k in want]
    elif isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return f"{where} length {len(got)} != {len(want)}"
        pairs = [(f"{where}[{i}]", g, w) for i, (g, w) in enumerate(zip(got, want))]
    elif (
        isinstance(want, (int, float)) and isinstance(got, (int, float))
        and not isinstance(want, bool) and not isinstance(got, bool)
    ):
        if math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0):
            return None
        return f"{where}: {got!r} != {want!r}"
    else:
        return None if got == want else f"{where}: {got!r} != {want!r}"
    for sub, g, w in pairs:
        why = mismatch(g, w, sub)
        if why:
            return why
    return None


def reference(workload: str, input_seed: int) -> dict:
    """Committed outcome per config name for this workload and input seed."""
    data = json.loads((REFERENCES / f"{workload}.json").read_text())
    return {**data["any_seed"], **data["by_seed"][str(input_seed)]}
