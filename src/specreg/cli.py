"""Command line front end.

``specreg run config.json`` executes one experiment and writes
``<name>.rows.csv`` and ``<name>.report.json`` next to the config (or into
the configured output directory).  The exit code is 0 exactly when every
verdict in the report passed; a refused run (bad preconditions) exits 2.

``specreg fixtures list`` prints the canonical fixture registry.

``specreg check-filter method.json`` certifies the filter axioms for one
method spec on default grids and prints the per-axiom verdicts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .errors import DomainError, number, section
from .experiments import ExperimentConfig, run_experiment
from .filters import check_assumption_sr, filter_from_dict
from .problems import fixture_registry


def _cmd_run(args) -> int:
    try:
        cfg = ExperimentConfig.from_json_file(args.config)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, DomainError) as exc:
        print(f"bad config: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_experiment(cfg)
    except DomainError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    out_dir = cfg.out_dir or os.path.dirname(os.path.abspath(args.config))
    os.makedirs(out_dir, exist_ok=True)
    rows_path = os.path.join(out_dir, f"{cfg.name}.rows.csv")
    report_path = os.path.join(out_dir, f"{cfg.name}.report.json")
    report.write_rows_csv(rows_path)
    report.write_report_json(report_path)
    for line in report.verdict_lines():
        print(line)
    print(f"rows: {rows_path}")
    print(f"report: {report_path}")
    return 0 if report.passed else 1


def _cmd_fixtures(args) -> int:
    if args.action != "list":
        print(f"unknown fixtures action {args.action!r}", file=sys.stderr)
        return 2
    for name, desc in fixture_registry().items():
        params = ", ".join(f"{k}={v}" for k, v in desc.params.items())
        print(f"{name}: {desc.kind}({params})")
    return 0


def _cmd_check_filter(args) -> int:
    try:
        with open(args.method, encoding="utf-8") as fh:
            spec = section("method spec", json.load(fh))
        op_norm_sq = number("op_norm_sq", spec.get("op_norm_sq", 1.0), above=0)
        method = filter_from_dict(spec)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, DomainError) as exc:
        print(f"bad method spec: {exc}", file=sys.stderr)
        return 2
    alpha_hi = min(method.alpha_max, op_norm_sq)
    alphas = np.geomspace(1e-8, alpha_hi, 100)
    if method.snaps_to_iteration_grid:
        alphas = np.sort(1.0 / np.unique(np.maximum(np.round(1.0 / alphas), 1.0)))
        alphas = alphas[alphas <= method.alpha_max]
    lams = np.concatenate([[0.0], np.geomspace(1e-10, op_norm_sq, 100)])
    report = check_assumption_sr(method, alphas, lams)
    d = report.to_dict()
    for key in ("q_bound", "r_monotone_lam", "r_monotone_alpha", "diagonal"):
        status = "PASS" if d[key]["passed"] else "FAIL"
        print(f"[{status}] {key} (worst value {d[key]['worst_value']:.6g})")
    lo, hi = report.diagonal_range
    print(f"diagonal range: [{lo:.6g}, {hi:.6g}]")
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="specreg",
        description="spectral regularization experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config", help="path to a config JSON file")
    p_run.set_defaults(fn=_cmd_run)

    p_fix = sub.add_parser("fixtures", help="inspect canonical fixtures")
    p_fix.add_argument("action", choices=["list"])
    p_fix.set_defaults(fn=_cmd_fixtures)

    p_chk = sub.add_parser(
        "check-filter", help="certify filter axioms for a method spec"
    )
    p_chk.add_argument("method", help="path to a method JSON file")
    p_chk.set_defaults(fn=_cmd_check_filter)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
