import json
import math

import numpy as np
import pytest

from specreg.errors import DomainError
from specreg.experiments import (
    DeterministicSweep,
    ExperimentConfig,
    LogLaw,
    PowerLaw,
    WhiteNoiseSweep,
    _resolve_alphas,
    _resolve_method,
    default_alpha_grid,
    fit_rate,
    resolve_element,
    run_bias_decay,
    run_experiment,
    run_rate,
    run_vsc_certificate,
    sweep_from_dict,
)
from specreg.filters import landweber, tikhonov
from specreg.problems import ProblemDescriptor, backward_heat_decay_index


def circle(n=2000, u=1.0):
    return ProblemDescriptor("single_layer_circle", {"N": n, "u": u})


def det_config(**over):
    base = dict(
        name="t",
        operation="deterministic_rate",
        problem=circle(),
        method={"method": "tikhonov"},
        noise=DeterministicSweep((1e-1, 1e-2, 1e-3, 1e-4)),
        rate_model=PowerLaw(0.5),
    )
    base.update(over)
    return ExperimentConfig(**base)


class TestFitRate:
    def test_exact_power_law(self):
        levels = np.geomspace(1e-1, 1e-5, 6)
        fit = fit_rate(levels, levels**0.5, PowerLaw(0.5))
        assert fit.value == pytest.approx(0.5, abs=1e-12)
        assert fit.residual == pytest.approx(0.0, abs=1e-12)

    def test_exact_log_law_band_one(self):
        levels = np.geomspace(1e-2, 1e-9, 8)
        errors = 2.0 / np.log(1.0 / levels)
        fit = fit_rate(levels, errors, LogLaw(1.0))
        assert fit.value == pytest.approx(1.0, rel=1e-12)
        assert fit.detail["constant"] == pytest.approx(2.0, rel=1e-12)

    def test_noisy_power_law_recovers_slope(self):
        rng = np.random.default_rng(3)
        levels = np.geomspace(1e-1, 1e-6, 12)
        errors = levels**0.5 * np.exp(rng.normal(0.0, 0.01, levels.size))
        fit = fit_rate(levels, errors, PowerLaw(0.5))
        assert abs(fit.value - 0.5) < 0.03

    def test_too_few_rows_refused(self):
        with pytest.raises(DomainError, match="at least 4"):
            fit_rate([1e-1, 1e-2, 1e-3], [1, 1, 1], PowerLaw(0.5))

    def test_degenerate_spread_refused(self):
        with pytest.raises(DomainError, match="degenerate"):
            fit_rate([0.1] * 5, [1.0] * 5, PowerLaw(0.5))

    def test_log_law_needs_levels_below_one(self):
        with pytest.raises(DomainError, match="below 1"):
            fit_rate([2.0, 0.5, 0.1, 0.01], [1, 1, 1, 1], LogLaw(1.0))


class TestConfigValidation:
    def test_sweep_must_descend(self):
        with pytest.raises(DomainError, match="strictly decreasing"):
            DeterministicSweep((1e-3, 1e-2))

    def test_zero_noise_level_refused(self):
        with pytest.raises(DomainError, match="positive"):
            WhiteNoiseSweep((1e-2, 0.0))

    def test_power_law_needs_three_decades(self):
        with pytest.raises(DomainError, match="3 decades"):
            det_config(noise=DeterministicSweep((1e-1, 5e-2, 2e-2, 1e-2)))

    def test_power_law_needs_four_levels(self):
        with pytest.raises(DomainError, match="4 levels"):
            det_config(noise=DeterministicSweep((1e-1, 1e-3, 1e-5)))

    def test_unknown_operation(self):
        with pytest.raises(DomainError, match="unknown operation"):
            det_config(operation="interpolate")

    def test_alpha_grid_must_ascend(self):
        with pytest.raises(DomainError, match="strictly increasing"):
            det_config(alpha_grid=(1e-2, 1e-3))

    def test_round_trip_through_dict(self):
        cfg = det_config(alpha_grid=(1e-6, 1e-4, 1e-2), seed=7)
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_from_json_file(self, tmp_path):
        cfg = det_config()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert ExperimentConfig.from_json_file(path) == cfg

    def test_sweep_dict_round_trip(self):
        sw = WhiteNoiseSweep((1e-2, 1e-3), replicates=50, seed=3)
        assert sweep_from_dict(sw.to_dict()) == sw


class TestDefaultAlphaGrid:
    def test_spans_spectrum_with_forty_per_decade(self):
        op = circle(200).build().op
        grid = default_alpha_grid(op, tikhonov())
        assert grid[0] == pytest.approx(op.eigenvalues[-1] / 10)
        assert grid[-1] == pytest.approx(op.eigenvalues[0] * 10)
        decades = math.log10(grid[-1] / grid[0])
        assert grid.size == int(math.ceil(decades * 40)) + 1

    def test_iteration_methods_snap_to_reciprocal_integers(self):
        op = circle(200).build().op
        method = landweber(mu_step=0.9, op_norm_sq=op.norm_tstar_t)
        grid = default_alpha_grid(op, method)
        ks = 1.0 / grid
        assert np.allclose(ks, np.round(ks))
        assert grid.max() <= method.alpha_max
        assert np.all(np.diff(grid) > 0)


GRADIOMETRY = ProblemDescriptor("gradiometry", {"R": 4.0, "L": 24, "beta": 1.0})

# one descriptor per factory kind, with its coefficient exponent p and
# the tail bound sqrt(w F^((1 + d) - 2p) / (2p - (1 + d))) worked by hand
# from the truncation frequency F and the multiplicity law w f^d
FIXTURE_LAWS = [
    (circle(), 1.5, 1 / 2000),
    (
        ProblemDescriptor("sobolev_scale", {"N": 1000, "a": 1.0, "u": 0.5}),
        1.0,
        1000**-0.5,
    ),
    # exp(-2 n^2) keeps n <= 17 above the eigenvalue floor
    (
        ProblemDescriptor("backward_heat", {"t_bar": 1.0, "N": 30, "beta": 1.0}),
        2.5,
        0.5**0.5 / 17**2,
    ),
    (ProblemDescriptor("sideways_heat", {"N": 64, "beta": 1.0}), 2.5, 0.5 / 64**2),
    (GRADIOMETRY, 3.0, 0.75**0.5 / 24**2),
]


class TestElementOverride:
    @pytest.mark.parametrize(
        "problem,p,want_tail",
        FIXTURE_LAWS,
        ids=[d.kind for d, _, _ in FIXTURE_LAWS],
    )
    def test_fixture_exponent_reproduces_fixture(self, problem, p, want_tail):
        element = {"kind": "coefficient_power", "p": p}
        cfg = det_config(problem=problem, element=element)
        fixture = problem.build()
        x_over, tail = resolve_element(cfg, fixture)
        np.testing.assert_array_equal(x_over.coefficients, fixture.x.coefficients)
        assert tail == pytest.approx(want_tail, rel=1e-12)
        assert resolve_element(det_config(problem=problem), fixture)[1] == tail

    @pytest.mark.parametrize("problem,p", [(circle(), 0.5), (GRADIOMETRY, 1.0)])
    def test_tail_refused_at_divergent_exponent(self, problem, p):
        element = {"kind": "coefficient_power", "p": p}
        cfg = det_config(problem=problem, element=element)
        with pytest.raises(DomainError, match="exponent must exceed"):
            resolve_element(cfg, problem.build())

    def test_range_power_multiplies_by_lambda(self):
        cfg = det_config(element={"kind": "range_power", "s": 0.5})
        fixture = cfg.problem.build()
        x_over, tail = resolve_element(cfg, fixture)
        np.testing.assert_allclose(
            x_over.coefficients,
            fixture.x.coefficients * np.sqrt(fixture.op.slot_eigenvalues),
        )
        # base tail 5e-4 scaled by lam_min^0.5 = 5e-4
        assert tail == pytest.approx(5e-4 * 5e-4, rel=1e-6)

    def test_unknown_override_rejected(self):
        cfg = det_config(element={"kind": "mystery"})
        with pytest.raises(DomainError, match="unknown element"):
            resolve_element(cfg, cfg.problem.build())


class TestDeterministicRate:
    def test_oracle_recovers_square_root_rate(self):
        rep = run_rate(det_config(problem=circle(20000)))
        assert rep.passed
        assert abs(rep.fit.value - 0.5) < 0.05
        names = [v.name for v in rep.verdicts]
        assert names == ["rate_fit", "oracle_monotone"]
        levels = [r.level for r in rep.rows]
        assert levels == sorted(levels, reverse=True)

    def test_tail_audit_refuses_polluted_fit(self):
        # at N=2000 the truncation tail pollutes every level below 1e-2
        rep = run_rate(
            det_config(noise=DeterministicSweep((1e-3, 1e-4, 1e-5, 1e-6)))
        )
        assert not rep.passed
        assert rep.fit is None
        fit_v = rep.verdicts[0]
        assert "refused" in fit_v.detail["reason"]
        assert any("tail audit" in n for n in rep.notes)
        # the rows themselves are retained
        assert len(rep.rows) == 4

    def test_discrepancy_rule_runs_and_tracks_budget(self):
        rep = run_rate(
            det_config(
                problem=circle(20000),
                rule={"kind": "discrepancy", "tau": 2.0},
            )
        )
        assert rep.config["rule"] == {"kind": "discrepancy", "tau": 2.0}
        assert all(r.total > 0 for r in rep.rows)
        # rule choices still track the oracle rate on this fixture
        assert abs(rep.fit.value - 0.5) < 0.1

    def test_report_embeds_resolved_config(self):
        cfg = det_config(problem=circle(500), method={"method": "landweber"})
        rep = run_rate(cfg)
        assert rep.config["method"]["method"] == "landweber"
        assert rep.config["method"]["mu_step"] == pytest.approx(0.9)
        spec = rep.config["alpha_grid_spec"]
        assert "alpha_grid" not in rep.config
        assert spec["points_per_decade"] == 40 and spec["snaps_to_iterations"]
        assert spec["count"] > 100 and 0 < spec["lo"] < spec["hi"]
        assert "truncation_note" in rep.config

    @pytest.mark.parametrize("method", ["tikhonov", "landweber"])
    def test_echoed_config_reruns_to_the_same_grid_and_rows(self, method):
        cfg = det_config(problem=circle(500), method={"method": method})
        rep = run_rate(cfg)
        echoed = ExperimentConfig.from_dict(json.loads(json.dumps(rep.config)))
        op = cfg.problem.build().op
        first, second = (
            _resolve_alphas(c, op, _resolve_method(c.method, op))
            for c in (cfg, echoed)
        )
        assert first.tobytes() == second.tobytes()
        assert first.size == rep.config["alpha_grid_spec"]["count"]
        again = run_rate(echoed)
        assert again.config == rep.config
        assert [r.to_dict() for r in again.rows] == [r.to_dict() for r in rep.rows]

    def test_explicit_grid_is_echoed_as_given(self):
        grid = (1e-6, 1e-4, 1e-3, 1e-2)
        rep = run_rate(det_config(problem=circle(500), alpha_grid=grid))
        assert rep.config["alpha_grid"] == list(grid)
        assert "alpha_grid_spec" not in rep.config

    def test_rerun_is_bit_identical(self):
        cfg = det_config(problem=circle(500))
        a = run_rate(cfg).to_dict()
        b = run_rate(cfg).to_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_threaded_rows_match_serial(self, monkeypatch):
        cfg = det_config(problem=circle(500))
        serial = run_rate(cfg).to_dict()
        monkeypatch.setenv("SPECREG_THREADS", "4")
        threaded = run_rate(cfg).to_dict()
        assert serial == threaded

    def test_needs_deterministic_sweep(self):
        cfg = det_config(noise=WhiteNoiseSweep((1e-2, 1e-3, 1e-4, 1e-5)))
        with pytest.raises(DomainError, match="deterministic sweep"):
            run_rate(cfg)


class TestWhiteNoiseRate:
    def white_config(self, **over):
        base = dict(
            name="w",
            operation="white_noise_rate",
            problem=circle(10000),
            method={"method": "tikhonov"},
            noise=WhiteNoiseSweep((1e-2, 1e-3, 1e-4, 1e-5), seed=5),
            rate_model=PowerLaw(0.4),
        )
        base.update(over)
        return ExperimentConfig(**base)

    def test_exact_mse_rate(self):
        rep = run_rate(self.white_config())
        assert rep.passed
        assert abs(rep.fit.value - 0.4) < 0.05
        env = rep.verdicts[0]
        assert env.name == "variance_envelope" and env.passed
        # sqrt(trace) decreases toward large alpha
        assert env.detail["sd_at_alpha_min"] > env.detail["sd_at_alpha_max"]

    def test_monte_carlo_cross_check(self):
        rep = run_rate(
            self.white_config(
                noise=WhiteNoiseSweep(
                    (1e-2, 1e-3, 1e-4, 1e-5), replicates=200, seed=5
                )
            )
        )
        mc = [v for v in rep.verdicts if v.name == "mc_agreement"]
        assert len(mc) == 1 and mc[0].passed
        assert len(mc[0].detail["rows"]) == 3
        for row in mc[0].detail["rows"]:
            assert row["within_3se"]

    def test_lepskii_rule_white(self):
        rep = run_rate(
            self.white_config(
                problem=circle(2000), rule={"kind": "lepskii"}
            )
        )
        assert rep.config["rule"] == {"kind": "lepskii", "constant": 4.0}
        assert all(r.alpha > 0 for r in rep.rows)

    def test_needs_white_sweep(self):
        cfg = self.white_config(
            noise=DeterministicSweep((1e-2, 1e-3, 1e-4, 1e-5))
        )
        with pytest.raises(DomainError, match="white noise sweep"):
            run_rate(cfg)


class TestBiasDecay:
    def bias_config(self, **over):
        base = dict(
            name="b",
            operation="bias_decay",
            problem=circle(),
            method={"method": "tikhonov"},
            nu=1.5,
        )
        base.update(over)
        return ExperimentConfig(**base)

    def test_borderline_element_bounded(self):
        rep = run_bias_decay(self.bias_config())
        assert rep.passed
        by_name = {v.name: v for v in rep.verdicts}
        assert by_name["ratio_growth"].detail["growth"] < 3
        assert (
            by_name["bounded_by_class_constant"].detail["sup_ratio"]
            < by_name["bounded_by_class_constant"].detail["class_bound"]
        )

    def test_rougher_element_fails_by_growth(self):
        rep = run_bias_decay(
            self.bias_config(element={"kind": "coefficient_power", "p": 1.0})
        )
        assert not rep.passed
        by_name = {v.name: v for v in rep.verdicts}
        assert not by_name["ratio_growth"].passed
        assert by_name["ratio_growth"].detail["growth"] >= 10

    def test_exact_range_element_bounded(self):
        rep = run_bias_decay(
            self.bias_config(element={"kind": "range_power", "s": 0.5})
        )
        assert rep.passed

    def test_insufficient_qualification_refused(self):
        cfg = self.bias_config(
            problem=ProblemDescriptor(
                "sobolev_scale", {"N": 1000, "a": 1.0, "u": 2.0}
            )
        )
        with pytest.raises(DomainError, match="qualification insufficient"):
            run_bias_decay(cfg)

    def test_rows_sweep_alpha(self):
        rep = run_bias_decay(self.bias_config())
        assert all(r.level == r.alpha for r in rep.rows)
        levels = [r.level for r in rep.rows]
        assert levels == sorted(levels, reverse=True)

    def test_nu_must_exceed_one(self):
        with pytest.raises(DomainError, match="nu > 1"):
            run_bias_decay(self.bias_config(nu=1.0))


class TestVscCertificate:
    def test_power_type_pathway_passes(self):
        cfg = ExperimentConfig(
            name="v",
            operation="vsc_certificate",
            problem=circle(u=0.5),
            method={"method": "tikhonov"},
            mu=0.2,
            n_probes=500,
        )
        rep = run_vsc_certificate(cfg)
        assert rep.passed
        names = [v.name for v in rep.verdicts]
        assert names == ["structure", "no_witness", "round_trip"]
        assert any(n.startswith("A=") for n in rep.notes)

    def test_log_type_pathway_passes(self):
        cfg = ExperimentConfig(
            name="v",
            operation="vsc_certificate",
            problem=ProblemDescriptor(
                "backward_heat", {"t_bar": 1.0, "N": 30, "beta": 1.0}
            ),
            method={"method": "showalter"},
            kappa=backward_heat_decay_index(1.0).to_dict(),
            mu=1.0 / 3.0,
            n_probes=500,
        )
        rep = run_vsc_certificate(cfg)
        assert rep.passed

    def test_structure_failure_is_listed_not_raised(self):
        # kappa = sqrt(t) violates the mu-condition for every mu in (0, 1)
        cfg = ExperimentConfig(
            name="v",
            operation="vsc_certificate",
            problem=circle(u=1.0),
            method={"method": "tikhonov"},
            mu=0.2,
            n_probes=100,
        )
        rep = run_vsc_certificate(cfg)
        assert not rep.passed
        assert rep.verdicts[0].name == "structure"
        assert not rep.verdicts[0].passed
        assert "nonincreasing" in rep.verdicts[0].detail["failure"]

    def test_missing_mu_rejected(self):
        cfg = ExperimentConfig(
            name="v",
            operation="vsc_certificate",
            problem=circle(u=0.5),
            method={"method": "tikhonov"},
        )
        with pytest.raises(DomainError, match="mu"):
            run_vsc_certificate(cfg)


class TestReportOutputs:
    def test_csv_shape_and_header(self, tmp_path):
        rep = run_rate(det_config(problem=circle(500)))
        path = tmp_path / "out.rows.csv"
        rep.write_rows_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "level,alpha,bias,noise_term,total,tail_bound"
        assert len(lines) == 1 + len(rep.rows)
        assert all(len(line.split(",")) == 6 for line in lines[1:])

    def test_json_round_trips_and_matches_dict(self, tmp_path):
        rep = run_rate(det_config(problem=circle(500)))
        path = tmp_path / "out.report.json"
        rep.write_report_json(path)
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(json.dumps(rep.to_dict()))
        assert loaded["kind"] == "deterministic_rate"
        assert isinstance(loaded["passed"], bool)

    def test_run_experiment_dispatch(self):
        rep = run_experiment(det_config(problem=circle(500)))
        assert rep.kind == "deterministic_rate"
