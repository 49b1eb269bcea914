import json

import pytest

from specreg.cli import main


def write_config(tmp_path, name="run-a", **over):
    cfg = {
        "name": name,
        "operation": "deterministic_rate",
        "problem": {
            "kind": "single_layer_circle",
            "params": {"N": 20000, "u": 1.0},
        },
        "method": {"method": "tikhonov"},
        "noise": {"kind": "deterministic", "deltas": [1e-1, 1e-2, 1e-3, 1e-4]},
        "rate_model": {"kind": "power", "expected": 0.5},
        "out_dir": str(tmp_path),
    }
    cfg.update(over)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return path


def test_run_passing_config_exits_zero(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["run", str(path)]) == 0
    out = capsys.readouterr().out
    assert "[PASS] rate_fit" in out
    assert (tmp_path / "run-a.rows.csv").exists()
    assert (tmp_path / "run-a.report.json").exists()


def test_run_outputs_are_reproducible(tmp_path, capsys):
    path = write_config(tmp_path)
    main(["run", str(path)])
    first = (tmp_path / "run-a.report.json").read_bytes()
    first_rows = (tmp_path / "run-a.rows.csv").read_bytes()
    main(["run", str(path)])
    assert (tmp_path / "run-a.report.json").read_bytes() == first
    assert (tmp_path / "run-a.rows.csv").read_bytes() == first_rows


def test_run_failing_verdict_exits_one(tmp_path, capsys):
    # tiny fixture: the tail audit refuses the fit, so the run fails
    path = write_config(
        tmp_path,
        name="run-b",
        problem={"kind": "single_layer_circle", "params": {"N": 200, "u": 1.0}},
        noise={"kind": "deterministic", "deltas": [1e-3, 1e-4, 1e-5, 1e-6]},
    )
    assert main(["run", str(path)]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] rate_fit" in out


def test_run_refusal_exits_two(tmp_path, capsys):
    path = write_config(
        tmp_path,
        name="run-c",
        operation="bias_decay",
        problem={"kind": "sobolev_scale", "params": {"N": 1000, "a": 1.0, "u": 2.0}},
        nu=1.5,
    )
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "refused" in err and "qualification" in err


def _white_noise(**noise):
    """Overrides for a white-noise rate run whose noise block has ``noise``."""
    return {
        "operation": "white_noise_rate",
        "noise": {
            "kind": "white",
            "epsilons": [1e-2, 1e-3, 1e-4, 1e-5],
            "replicates": 10,
            **noise,
        },
    }


def _power(**fields):
    return {"rate_model": {"kind": "power", "expected": 0.5, **fields}}


def _log(**fields):
    return {"rate_model": {"kind": "log", "beta": 1.0, **fields}}


@pytest.mark.parametrize(
    "over,field",
    [
        (None, "bad config"),
        ({"method": {"method": "landweber", "mu_step": 2}}, "mu_step"),
        (
            {"problem": {"kind": "single_layer_circle",
                         "params": {"N": 2000, "u": 1.0, "w": 3}}},
            "params.w",
        ),
        ({"rule": {"kind": "discrepancy", "tau": 0.5}}, "rule.tau"),
        (
            {"problem": {"kind": "single_layer_circle",
                         "params": {"N": "abc", "u": 1.0}}},
            "params.N",
        ),
        (
            {"problem": {"kind": "single_layer_circle",
                         "params": {"N": 2000, "u": "x"}}},
            "params.u",
        ),
        ({"noise": {"kind": "deterministic", "deltas": "abc"}}, "noise.deltas"),
        ({"element": {"kind": "coefficient_power", "p": "abc"}}, "element.p"),
        (
            {"operation": "vsc_certificate", "mu": 0.2, "kappa": {"kind": "nope"}},
            "kappa",
        ),
        (
            {"problem": {"kind": "sobolev_scale",
                         "params": {"N": 1000, "a": float("nan"), "u": 0.5}}},
            "params.a",
        ),
        (_white_noise(replicates=2.5), "noise.replicates"),
        (_white_noise(replicates=1), "noise.replicates"),
        (_white_noise(replicates=True), "noise.replicates"),
        (_white_noise(replicates="10"), "noise.replicates"),
        (_white_noise(seed=1.5), "noise.seed"),
        (_white_noise(seed=-1), "noise.seed"),
        ({"seed": -1}, "seed"),
        ({"seed": 0.5}, "seed"),
        ({"n_probes": 2.5}, "n_probes"),
        ({"n_probes": -3}, "n_probes"),
        ({"rule": {"kind": "lepskii", "constant": -1}}, "rule.constant"),
        ({"rule": {"kind": "lepskii", "constant": 0}}, "rule.constant"),
        ({"rule": {"kind": "lepskii", "constant": float("nan")}}, "rule.constant"),
        ({"rule": {"kind": "lepskii", "constant": float("inf")}}, "rule.constant"),
        ({"rule": {"kind": "lepskii", "constant": True}}, "rule.constant"),
        ({"rule": {"kind": "lepskii", "constant": "abc"}}, "rule.constant"),
        ({"rule": {"kind": "discrepancy", "tau": float("inf")}}, "rule.tau"),
        ({"rule": {"kind": "discrepancy", "tau": float("nan")}}, "rule.tau"),
        ({"name": 5}, "name"),
        ({"noise": 5}, "noise"),
        ({"noise": [1e-1, 1e-2]}, "noise"),
        ({"noise": "deterministic"}, "noise"),
        ({"noise": None}, "noise"),
        ({"rate_model": 0.5}, "rate_model"),
        ({"rate_model": [0.5]}, "rate_model"),
        ({"rate_model": "power"}, "rate_model"),
        ({"rate_model": None}, "rate_model"),
        (_power(expected=float("nan")), "rate_model.expected"),
        (_power(expected=True), "rate_model.expected"),
        (_power(tolerance=float("nan")), "rate_model.tolerance"),
        (_power(tolerance=-1), "rate_model.tolerance"),
        (_power(tolerance=0), "rate_model.tolerance"),
        (_power(tolerance=True), "rate_model.tolerance"),
        (_log(beta=float("nan")), "rate_model.beta"),
        (_log(beta=-1), "rate_model.beta"),
        (_log(beta=True), "rate_model.beta"),
        (_log(band_limit=float("nan")), "rate_model.band_limit"),
        (_log(band_limit=0.5), "rate_model.band_limit"),
        (_log(band_limit=-1), "rate_model.band_limit"),
        (_log(band_limit=True), "rate_model.band_limit"),
        ({"method": {"method": "iterated_tikhonov", "k": 2.5}}, "k must be a whole"),
        ({"method": {"method": "iterated_tikhonov", "k": True}}, "k must be a whole"),
        ({"element": {"kind": "coefficient_power"}}, "element.p"),
        ({"element": {"kind": "range_power"}}, "element.s"),
        (
            {"problem": {"kind": "single_layer_circle",
                         "params": {"N": 2000, "u": 0}}},
            "nu must be positive",
        ),
        (
            {"problem": {"kind": "single_layer_circle",
                         "params": {"N": 1e300, "u": 1.0}}},
            "params.N",
        ),
        (
            {"problem": {"kind": "backward_heat",
                         "params": {"t_bar": 1e300, "N": 30, "beta": 1.0}}},
            "cap_at",
        ),
        (
            {"problem": {"kind": "sobolev_scale",
                         "params": {"N": 1000, "a": 1e300, "u": 0.5}}},
            "eigenvalues",
        ),
        (_white_noise(replicates=1e300), "noise.replicates"),
        ({"operation": "vsc_certificate", "mu": 0.2, "n_probes": 1e300}, "n_probes"),
        (
            {"operation": "vsc_certificate", "mu": 0.2,
             "kappa": {"kind": "logpower"}},
            "kappa.p",
        ),
        (
            {"operation": "vsc_certificate", "mu": 0.2,
             "kappa": {"kind": "logpower", "p": 1.0, "shift": float("nan")}},
            "kappa.shift",
        ),
        (
            {"operation": "vsc_certificate", "mu": 0.2,
             "kappa": {"kind": "logpower", "p": 1.0, "shift": 1e300}},
            "shift",
        ),
        ({"element": {"kind": "range_power", "s": float("nan")}}, "element.s"),
        (
            {"problem": {"kind": ["single_layer_circle"],
                         "params": {"N": 2000, "u": 1.0}}},
            "unknown problem kind",
        ),
        (
            {"operation": "vsc_certificate", "mu": 0.2,
             "kappa": {"kind": "logpower", "p": True, "shift": 3.1}},
            "kappa.p",
        ),
        (
            {"element": {"kind": "coefficient_power", "p": float("inf")}},
            "element.p",
        ),
        ({"out_dir": 5}, "out_dir"),
        (b'{"name": "run-\xff"}', "utf-8"),
        ({"method": {"method": "iterated_tikhonov", "k": 10**400}}, "method.k"),
        (b'{"name": "run-d", "seed": 1' + b"1" * 5000 + b"}", "4300 digits"),
    ],
    ids=[
        "not_json", "mu_step", "unknown_param", "tau", "N", "u", "deltas",
        "element", "kappa", "nan_param", "replicates_fraction", "replicates_one",
        "replicates_bool", "replicates_string", "noise_seed_fraction",
        "noise_seed_negative", "seed_negative", "seed_fraction",
        "n_probes_fraction", "n_probes_negative", "constant_negative",
        "constant_zero", "constant_nan", "constant_infinite", "constant_bool",
        "constant_string", "tau_infinite", "tau_nan", "name_number",
        "noise_number", "noise_list", "noise_string", "noise_null",
        "rate_model_number", "rate_model_list", "rate_model_string",
        "rate_model_null", "expected_nan", "expected_bool", "tolerance_nan",
        "tolerance_negative", "tolerance_zero", "tolerance_bool", "beta_nan",
        "beta_negative", "beta_bool", "band_limit_nan", "band_limit_below_one",
        "band_limit_negative", "band_limit_bool", "k_fraction", "k_bool",
        "element_no_p", "element_no_s", "u_zero", "N_huge", "t_bar_huge",
        "a_huge", "replicates_huge", "n_probes_huge", "kappa_no_p",
        "kappa_shift_nan", "kappa_shift_huge", "element_s_nan",
        "problem_kind_list", "kappa_p_bool", "element_p_infinite", "out_dir_number",
        "not_utf8", "k_beyond_double", "int_beyond_digit_limit",
    ],
)
def test_run_bad_config_exits_two(tmp_path, capsys, over, field):
    # one line on stderr naming the field, no traceback
    if over is None:
        path = tmp_path / "broken.json"
        path.write_text("{not json")
    elif isinstance(over, bytes):
        path = tmp_path / "binary.json"
        path.write_bytes(over)
    else:
        path = write_config(tmp_path, **{"name": "run-d", **over})
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert field in err


def test_fixtures_list(capsys):
    assert main(["fixtures", "list"]) == 0
    out = capsys.readouterr().out
    for name in (
        "circle-u1",
        "circle-u05",
        "sobolev-a1-u05",
        "backward-heat-b1",
        "sideways-heat-b1",
        "gradiometry-r4",
    ):
        assert name in out


def test_check_filter_passes(tmp_path, capsys):
    path = tmp_path / "tik.json"
    path.write_text(json.dumps({"method": "tikhonov"}))
    assert main(["check-filter", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 4
    assert "diagonal range: [0.5, 0.5]" in out


def test_check_filter_iterative_method(tmp_path, capsys):
    path = tmp_path / "lw.json"
    path.write_text(
        json.dumps({"method": "landweber", "mu_step": 0.9, "op_norm_sq": 1.0})
    )
    assert main(["check-filter", str(path)]) == 0
    assert capsys.readouterr().out.count("[PASS]") == 4


@pytest.mark.parametrize(
    "spec",
    [
        {"method": "gaussian_blur"},
        "x",
        None,
        [1],
        {"method": "tikhonov", "op_norm_sq": "x"},
        {"method": "tikhonov", "op_norm_sq": None},
        {"method": "landweber", "mu_step": 0.9, "op_norm_sq": "x"},
        {"method": "iterated_tikhonov", "k": 2.5},
        {"method": "iterated_tikhonov", "k": True},
        b'{"method": "iterated_tikhonov", "k": 1' + b"1" * 5000 + b"}",
    ],
    ids=[
        "unknown_method", "string", "null", "list", "op_norm_sq_string",
        "op_norm_sq_null", "landweber_op_norm_sq_string", "k_fraction", "k_bool",
        "int_beyond_digit_limit",
    ],
)
def test_check_filter_bad_spec(tmp_path, capsys, spec):
    path = tmp_path / "bad.json"
    if isinstance(spec, bytes):
        path.write_bytes(spec)
    else:
        path.write_text(json.dumps(spec))
    assert main(["check-filter", str(path)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "bad method spec" in err
