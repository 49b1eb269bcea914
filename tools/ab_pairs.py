"""Alternating A/B pairs of the benchmark: a parent commit against the working tree.

Usage (from the repository root):

    python3 tools/ab_pairs.py --parent <rev> --workload det_oracle --pairs 10

The parent's committed files are extracted with ``git archive`` into
``.perfbench_work/ab-<sha>/`` (gitignored; no worktree is registered,
so nothing is left to prune).  Each pair runs ``perfbench/run.py
--trace 0`` once on the parent and once on the working tree, each in a
fresh process at the benchmark's own run length, and alternates which
side goes first.  A run that is not correct stops the command.

``BENCH_<workload>.json`` at the repository root (``BENCH_<workload>
.seed<N>.json`` for an input seed N other than 0) records, per pair and
side, the end-to-end metrics ``cycle_s``, ``peak_rss_mb`` and
``setup_s`` with the raw ``cycle_wall_median_s`` and
``speed_factor_median`` of the detail line; per metric and side, the
median and quartiles over the pairs; and the number of pairs in which
the working tree read lower than the parent.

This lives outside ``perfbench/`` only until a change to the benchmark
itself moves it there.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
METRICS = ("cycle_s", "peak_rss_mb", "setup_s")
DETAILS = ("cycle_wall_median_s", "speed_factor_median")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="commit to compare against")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2, for quartiles")
    return args


def _git(*args) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def parent_tree(rev: str) -> tuple[str, Path]:
    """The full hash of ``rev`` and a directory holding its committed files."""
    sha = _git("rev-parse", "--verify", f"{rev}^{{commit}}")
    tree = WORK / f"ab-{sha[:12]}"
    if not (tree / "perfbench" / "run.py").is_file():
        tree.mkdir(parents=True, exist_ok=True)
        archive = subprocess.run(
            ["git", "archive", "--format=tar", sha],
            cwd=ROOT, check=True, capture_output=True,
        ).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree, filter="data")
    return sha, tree


def run_once(tree: Path, args) -> dict:
    """One fresh benchmark process in ``tree``; its metrics and details."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", args.workload,
        "--seed", str(args.seed), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"benchmark in {tree} failed:\n{proc.stderr[-2000:]}")
    detail = json.loads(lines[-2])["detail"]
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"benchmark in {tree} was not correct: {detail['failures']}")
    run = {k: result["metrics"][k]["value"] for k in METRICS}
    run.update({k: detail[k] for k in DETAILS})
    run["machine"] = detail["machine"]
    return run


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main(argv=None) -> int:
    args = parse_args(argv)
    sha, tree = parent_tree(args.parent)
    sides = {"parent": tree, "change": ROOT}
    pairs = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"first": order[0]}
        for side in order:
            pair[side] = run_once(sides[side], args)
        machine = pair["parent"].pop("machine")
        pair["change"].pop("machine")
        pairs.append(pair)
        print(
            f"pair {i + 1}/{args.pairs}: cycle_s parent "
            f"{pair['parent']['cycle_s']:.4f} change {pair['change']['cycle_s']:.4f}",
            file=sys.stderr,
        )
    summary = {}
    for key in METRICS + DETAILS:
        summary[key] = {
            side: spread([p[side][key] for p in pairs]) for side in sides
        }
        summary[key]["change_lower_in"] = sum(
            p["change"][key] < p["parent"][key] for p in pairs
        )
    # the benchmark runs src/ and perfbench/; their tree hashes name what
    # was measured even after later commits that touch other files
    dirty = _git("status", "--porcelain", "--untracked-files=no", "--", "src", "perfbench")
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "pairs_run": args.pairs,
        "parent": sha,
        "parent_src_tree": _git("rev-parse", f"{sha}:src"),
        "change": _git("rev-parse", "HEAD") + ("+modified" if dirty else ""),
        "change_src_tree": "modified" if dirty else _git("rev-parse", "HEAD:src"),
        "machine": machine,
        "summary": summary,
        "pairs": pairs,
    }
    suffix = f".seed{args.seed}" if args.seed else ""
    path = ROOT / f"BENCH_{args.workload}{suffix}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
