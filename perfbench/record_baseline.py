"""Record baseline.json: one untraced and one traced run of every workload.

Usage (from the repository root):

    python3 perfbench/record_baseline.py [--seed N] [--seconds S]

Runs ``perfbench/run.py`` as the benchmark command does, once with
--trace 0 and once with --trace 1 per workload, and stores each run's
details (machine facts included) and result line.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import harness
from workloads import WORKLOADS


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int,
                   default=json.loads((harness.ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    args = p.parse_args(argv)
    runs = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, "perfbench/run.py", "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=harness.ROOT, capture_output=True,
                                  text=True, timeout=600, check=True)
            detail_line, result_line = proc.stdout.splitlines()[-2:]
            runs[f"{name}/trace{trace}"] = {
                **json.loads(detail_line),
                "result": json.loads(result_line),
            }
            print(f"{name} trace {trace}: {result_line}", flush=True)
    out = harness.ROOT / "perfbench" / "baseline.json"
    out.write_text(json.dumps(
        {"command": "python3 perfbench/run.py", "seconds": args.seconds, "runs": runs},
        indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
