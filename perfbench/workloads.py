"""The benchmark's workloads: generated `specreg run` configs per seed.

Each workload is a list of config dicts built from an input seed.  The
program under test sees only the JSON files written from them.  Sizes
are scaled down from the acceptance configs so that one pass over a
workload (a "cycle") takes 1-3 s on a 2-core box and a run repeats it
often enough for a steady median on a noisy machine; the comment on
each workload says which acceptance config it stands for and what was
shrunk.

``expected`` lists the traced binding sites (see tracing.BINDINGS) that
every cycle of the workload must reach.  The traced run fails loudly
when one of them is never called, so a rename or move in the package
cannot quietly turn a per-layer metric into zeros.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Callable

# The --seed of run.py is reduced modulo this count to an input seed, and
# references/<workload>.json holds the committed outcome of every input
# seed, so each run is checked exactly, statistical verdicts included.
INPUT_SEEDS = 16

_COMMON = (
    "cli:main",
    "experiments:ExperimentConfig.from_json_file",
    "experiments:RateReport.write_rows_csv",
    "experiments:RateReport.write_report_json",
    "cli:run_experiment",
    "problems:ProblemDescriptor.build",
    "filters:FilterMethod.r",
)


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int], list[dict]]  # input seed -> config dicts
    expected: tuple[str, ...]

    def write_configs(self, directory: Path, input_seed: int) -> list[Path]:
        """Write the workload's config files; outputs land beside them."""
        paths = []
        for cfg in self.build(input_seed):
            cfg = dict(cfg, out_dir=str(directory))
            path = directory / f"{cfg['name']}.json"
            path.write_text(json.dumps(cfg, indent=1, sort_keys=True))
            paths.append(path)
        return paths


def _circle(n: int) -> dict:
    return {"kind": "single_layer_circle", "params": {"N": n, "u": 1.0}}


def _det_rate(name, problem, method, deltas, rate_model, rule=None) -> dict:
    cfg = {
        "name": name,
        "operation": "deterministic_rate",
        "problem": problem,
        "method": {"method": method},
        "noise": {"kind": "deterministic", "deltas": deltas},
        "rate_model": rate_model,
    }
    if rule is not None:
        cfg["rule"] = rule
    return cfg


def _white_rate(name, n, epsilons, replicates, seed, rule=None) -> dict:
    cfg = {
        "name": name,
        "operation": "white_noise_rate",
        "problem": _circle(n),
        "method": {"method": "tikhonov"},
        "noise": {
            "kind": "white",
            "epsilons": epsilons,
            "replicates": replicates,
            "seed": seed,
        },
        "rate_model": {"kind": "power", "expected": 0.4},
    }
    if rule is not None:
        cfg["rule"] = rule
    return cfg


_POWER_HALF = {"kind": "power", "expected": 0.5}
_DELTAS = [1e-1, 1e-2, 1e-3, 1e-4]


def _det_oracle(seed: int) -> list[dict]:
    # acceptance 4 at N=10k (not 100k) with 4 deltas, and acceptance 6
    # with every third of its 10 deltas: 5k-level secular solves next to
    # tiny 30-level solves at extreme sigma
    return [
        _det_rate("circle-tikhonov-oracle", _circle(10_000), "tikhonov",
                  _DELTAS, _POWER_HALF),
        _det_rate("circle-landweber-oracle", _circle(10_000), "landweber",
                  _DELTAS, _POWER_HALF),
        _det_rate(
            "heat-showalter-logband",
            {"kind": "backward_heat",
             "params": {"t_bar": 1.0, "N": 30, "beta": 1.0}},
            "showalter",
            [1e-3, 1e-6, 1e-9, 1e-12],
            {"kind": "log", "beta": 1.0},
        ),
    ]


def _white_noise_mc(seed: int) -> list[dict]:
    # acceptance 5 at N=10k (not 100k), epsilons 1e-2..1e-5
    return [
        _white_rate("circle-tikhonov-white-mc", 10_000,
                    [1e-2, 1e-3, 1e-4, 1e-5], 1000, seed),
    ]


def _rule_choice(seed: int) -> list[dict]:
    # Lepskii at N=3000 (not 20k) and discrepancy at N=50k (not 100k).
    # Lepskii costs O(G^2) in the grid size G, so its grid has 20 points
    # per decade over [1e-8, 10], half the density of the default grid
    # over about the same span, which keeps a cycle near 1.6 s.
    grid = [10.0 ** (i / 20 - 8) for i in range(181)]
    lepskii = {"kind": "lepskii"}
    return [
        dict(_det_rate("circle-lepskii-det", _circle(3000), "tikhonov",
                       _DELTAS, _POWER_HALF, rule=lepskii), alpha_grid=grid),
        dict(_white_rate("circle-lepskii-white", 3000, [1e-2, 1e-3, 1e-4, 1e-5],
                         0, seed, rule=lepskii), alpha_grid=grid),
        _det_rate("circle-discrepancy", _circle(50_000), "tikhonov", _DELTAS,
                  _POWER_HALF, rule={"kind": "discrepancy"}),
    ]


def _vsc(name, problem, mu, seed, kappa=None) -> dict:
    cfg = {
        "name": name,
        "operation": "vsc_certificate",
        "problem": problem,
        "method": {"method": "tikhonov"},
        "mu": mu,
        "seed": seed,
    }
    if kappa is not None:
        cfg["kappa"] = kappa
    return cfg


def _bias_decay(name, element=None) -> dict:
    cfg = {
        "name": name,
        "operation": "bias_decay",
        "problem": _circle(2000),
        "method": {"method": "tikhonov"},
        "nu": 1.5,
    }
    if element is not None:
        cfg["element"] = element
    return cfg


def _vsc_cert(seed: int) -> list[dict]:
    # acceptance 7 and 8 at full size, plus the sideways-heat fixture,
    # whose tabulated kappa is built by kappa_from_lambda and whose
    # certificate is refused (exit 1)
    heat = {"kind": "backward_heat",
            "params": {"t_bar": 1.0, "N": 30, "beta": 1.0}}
    # problems.backward_heat_decay_index(1.0) as a config dict
    heat_kappa = {"kind": "logpower", "p": 1.0, "shift": 3.1}
    return [
        _vsc("sobolev-1000-vsc",
             {"kind": "sobolev_scale", "params": {"N": 1000, "a": 1.0, "u": 0.5}},
             0.2, seed),
        _vsc("sobolev-4000-vsc",
             {"kind": "sobolev_scale", "params": {"N": 4000, "a": 1.0, "u": 0.5}},
             0.2, seed),
        _vsc("heat-vsc", heat, 1.0 / 3.0, seed, kappa=heat_kappa),
        _vsc("sideways-heat-vsc",
             {"kind": "sideways_heat", "params": {"N": 64, "beta": 1.0}},
             0.2, seed),
        _bias_decay("circle-bias-borderline"),
        _bias_decay("circle-bias-rough",
                    element={"kind": "coefficient_power", "p": 1.0}),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "det_oracle",
            "grid-oracle worst-case rates: secular solves on 5k-level "
            "arrays and on tiny 30-level heat spectra dominate",
            _det_oracle,
            _COMMON + (
                "filters:FilterMethod.q",
                "experiments:bias",
                "experiments:propagation_norm",
                "experiments:grid_inf_error",
                "param_choice:worst_case_error",
                "experiments:fit_rate",
            ),
        ),
        Workload(
            "white_noise_mc",
            "white-noise rate with a 1000-replicate Monte Carlo check: "
            "noise streams dominate and no secular solve runs",
            _white_noise_mc,
            _COMMON + (
                "filters:FilterMethod.q",
                "experiments:bias",
                "experiments:variance_trace",
                "experiments:mse_monte_carlo",
                "regularize:noise_generator",
                "experiments:fit_rate",
            ),
        ),
        Workload(
            "rule_choice",
            "Lepskii (deterministic and white) and discrepancy choices: "
            "per-alpha filter evaluation dominates, one solve per row",
            _rule_choice,
            _COMMON + (
                "filters:FilterMethod.q",
                "experiments:bias",
                "experiments:propagation_norm",
                "experiments:variance_trace",
                "param_choice:choose_lepskii",
                "param_choice:choose_discrepancy",
                "param_choice:variance_trace",
                "experiments:error_breakdown",
                "regularize:worst_case_error",
                "spectral:noise_generator",
                "experiments:fit_rate",
            ),
        ),
        Workload(
            "vsc_cert",
            "VSC certificates and bias decay: the only workload that builds "
            "psi profiles, runs falsify probes and tabulates kappa",
            _vsc_cert,
            _COMMON + (
                "experiments:decay_to_vsc",
                "experiments:vsc_falsify",
                "index_functions:PsiProfile.build",
                "vsc:theta_inverse",
                "problems:kappa_from_lambda",
                "experiments:bias",
            ),
        ),
    )
}
