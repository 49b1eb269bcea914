"""Replay of one-leaf config mutations through ``specreg run``.

Every mutation puts one bad value into one entry of a small valid config,
or deletes one key.  Whatever the value does, the run must end in a
documented exit code (0 pass, 1 verdict failed, 2 refused) without an
exception escaping ``cli.main``, and a refusal must say so on exactly one
stderr line, with no numpy warnings ahead of it.
"""

import contextlib
import copy
import io
import json
import warnings

from specreg.cli import main

BAD_VALUES = (
    float("nan"), float("inf"), float("-inf"), -1, 0, 0.5, True, "x", None,
    [], {}, 1e300,
)
_DELTAS = [1e-1, 1e-2, 1e-3, 1e-4]
_EPSILONS = [1e-2, 1e-3, 1e-4, 1e-5]
_HEAT = {"kind": "backward_heat", "params": {"t_bar": 1.0, "N": 30, "beta": 1.0}}


def _circle(n=40):
    return {"kind": "single_layer_circle", "params": {"N": n, "u": 1.0}}


def _det(name, method, **extra):
    return {
        "name": name,
        "operation": "deterministic_rate",
        "problem": _circle(),
        "method": method,
        "noise": {"kind": "deterministic", "deltas": _DELTAS},
        "rate_model": {"kind": "power", "expected": 0.5},
        **extra,
    }


def _white(name, **extra):
    return {
        "name": name,
        "operation": "white_noise_rate",
        "problem": _circle(),
        "method": {"method": "tikhonov"},
        "noise": {"kind": "white", "epsilons": _EPSILONS, "replicates": 10, "seed": 3},
        "rate_model": {"kind": "power", "expected": 0.4, "tolerance": 0.05},
        **extra,
    }


def _vsc(name, problem, mu, **extra):
    return {
        "name": name,
        "operation": "vsc_certificate",
        "problem": problem,
        "method": {"method": "tikhonov"},
        "mu": mu,
        "n_probes": 40,
        "seed": 1,
        **extra,
    }


def _bias_decay(name, element):
    return {
        "name": name,
        "operation": "bias_decay",
        "problem": _circle(200),
        "method": {"method": "tikhonov"},
        "element": element,
        "nu": 1.5,
        "growth_limit": 10.0,
    }


CONFIGS = (
    _det("oracle", {"method": "landweber"}),
    _det(
        "heat-log", {"method": "showalter"},
        problem=_HEAT,
        noise={"kind": "deterministic", "deltas": [1e-3, 1e-6, 1e-9, 1e-12]},
        rate_model={"kind": "log", "beta": 1.0, "band_limit": 2.0},
    ),
    _det("a-priori", {"method": "iterated_tikhonov", "k": 2}, rule={"kind": "a_priori"}),
    _det(
        "discrepancy", {"method": "lardy", "beta": 1.0},
        problem={"kind": "gradiometry", "params": {"R": 4.0, "L": 12, "beta": 1.0}},
        rule={"kind": "discrepancy", "tau": 2.0},
    ),
    _white("white-mc"),
    _white(
        "lepskii", rule={"kind": "lepskii", "constant": 4.0},
        alpha_grid=[1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1],
    ),
    _vsc(
        "sobolev-vsc",
        {"kind": "sobolev_scale", "params": {"N": 40, "a": 1.0, "u": 0.5}},
        0.2,
    ),
    _vsc("heat-vsc", _HEAT, 1.0 / 3.0, kappa={"kind": "logpower", "p": 1.0, "shift": 3.1}),
    _bias_decay("coefficient", {"kind": "coefficient_power", "p": 1.0}),
    _bias_decay("range", {"kind": "range_power", "s": 0.5}),
)


def _entries(node, path=()):
    """Paths of every entry below ``node``, parents before children."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,), value
        if isinstance(value, (dict, list)):
            yield from _entries(value, path + (key,))


def _mutants(cfg):
    for path, _ in _entries(cfg):
        for bad in BAD_VALUES:
            yield path, bad
        if isinstance(path[-1], str):
            yield path, "<deleted>"


def _mutated(cfg, path, bad):
    out = copy.deepcopy(cfg)
    node = out
    for key in path[:-1]:
        node = node[key]
    if bad == "<deleted>":
        del node[path[-1]]
    else:
        node[path[-1]] = copy.deepcopy(bad)
    return out


def _run(config_path):
    """Exit code and stderr lines (warnings included) of one run."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", str(config_path)])
    return code, err.getvalue().splitlines() + [str(w.message) for w in caught]


def test_one_leaf_mutations_exit_cleanly(tmp_path):
    config_path = tmp_path / "mutant.json"
    failures = []
    count = 0
    for base in CONFIGS:
        for path, bad in _mutants(base):
            cfg = dict(_mutated(base, path, bad), out_dir=str(tmp_path))
            config_path.write_text(json.dumps(cfg))
            case = f"{base['name']} {'.'.join(map(str, path))} = {bad!r}"
            count += 1
            try:
                code, lines = _run(config_path)
            except Exception as exc:
                failures.append(f"{case}: {type(exc).__name__}: {exc}")
                continue
            if code not in (0, 1, 2):
                failures.append(f"{case}: exit {code}")
            elif code == 2 and len(lines) != 1:
                failures.append(f"{case}: {len(lines)} stderr lines {lines[:3]}")
    assert count > 2000
    assert not failures, f"{len(failures)} of {count} mutations:\n" + "\n".join(failures)


def test_the_base_configs_run(tmp_path):
    for base in CONFIGS:
        path = tmp_path / "base.json"
        path.write_text(json.dumps(dict(base, out_dir=str(tmp_path))))
        code, lines = _run(path)
        assert code in (0, 1), (base["name"], code, lines)
