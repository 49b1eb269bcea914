"""The configs of all four benchmark workloads still give their committed
outcomes.

The benchmark checks every run against perfbench/references; this test
runs the same configs for input seed 0 through the same check, so a
changed oracle pick, Lepskii or discrepancy pick, Monte Carlo estimate,
VSC verdict or residual shows up in the test suite first.  It only reads
the benchmark's files.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from specreg import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class is built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "workload", ["det_oracle", "white_noise_mc", "rule_choice", "vsc_cert"]
)
def test_matches_its_references(workload, tmp_path, monkeypatch):
    harness = _load("harness", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    reference = harness.reference(workload, 0)
    paths = workloads.WORKLOADS[workload].write_configs(tmp_path, 0)
    assert sorted(p.stem for p in paths) == sorted(reference)
    for path in paths:
        got = harness.outcome(path, harness.run_config(cli, path))
        why = harness.mismatch(got, reference[path.stem], path.stem)
        assert why is None, why
