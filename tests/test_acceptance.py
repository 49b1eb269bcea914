"""End-to-end acceptance suite.

One test per criterion; each prints a single [PASS]/[FAIL] line directly
to the terminal (bypassing capture) and enforces both the stated
tolerance and the runtime budget.  The suite exercises the public API
the way the documentation describes it, so it doubles as an executable
summary of what the package certifies at desk scale: bounded-constant
and slope-band statements over the sampled ranges, nothing beyond.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from oracles import brute_force_worst_case
from specreg.experiments import (
    DeterministicSweep,
    ExperimentConfig,
    LogLaw,
    PowerLaw,
    WhiteNoiseSweep,
    default_alpha_grid,
    run_bias_decay,
    run_rate,
)
from specreg.filters import (
    catalogue,
    check_assumption_sr,
    iterated_tikhonov,
    landweber,
    modified_spectral_cutoff,
    showalter,
    tikhonov,
)
from specreg.index_functions import PowerIndex, psi_kappa
from specreg.param_choice import delta_set
from specreg.problems import (
    ProblemDescriptor,
    backward_heat_decay_index,
    fixture_registry,
    sideways_heat_lambda,
)
from specreg.regularize import worst_case_error
from specreg.spectral import SpectralElement, SpectralOperator
from specreg.vsc import decay_to_vsc, vsc_falsify


def _report(capsys, num, name, ok, elapsed, budget, detail=""):
    status = "PASS" if ok and elapsed <= budget else "FAIL"
    tail = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(
            f"[{status}] acceptance {num}: {name} "
            f"[{elapsed:.2f}s / {budget:.0f}s]{tail}"
        )
    assert ok, f"acceptance {num} failed: {detail}"
    assert elapsed <= budget, f"acceptance {num} over budget: {elapsed:.2f}s"


def test_01_filter_axiom_certification(capsys):
    t0 = time.perf_counter()
    lam_grid = np.concatenate([[0.0], np.geomspace(1e-8, 1.0, 99)])
    methods = catalogue() + [iterated_tikhonov(3)]
    pinned = {
        "tikhonov": 0.5,
        "showalter": math.exp(-1.0),
        "modified_spectral_cutoff": 0.5,
    }
    ok = True
    worst = ""
    for m in methods:
        alpha_hi = min(m.alpha_max, 1.0)
        alphas = np.geomspace(1e-8, alpha_hi, 100)
        rep = check_assumption_sr(m, alphas, lam_grid)
        if not rep.passed:
            ok, worst = False, f"{m.name} axioms failed"
            break
        target = pinned.get(m.name)
        if m.name == "iterated_tikhonov":
            target = 2.0**-m.k
        if target is not None:
            lo, hi = rep.diagonal_range
            if abs(lo - target) > 1e-12 or abs(hi - target) > 1e-12:
                ok, worst = False, f"{m.name} diagonal off: [{lo}, {hi}]"
                break
    elapsed = time.perf_counter() - t0
    _report(
        capsys, 1, "six filters certified, diagonal constants to 1e-12",
        ok, elapsed, 1.0, worst or f"{len(methods)} methods",
    )


def test_02_psi_closed_forms(capsys):
    t0 = time.perf_counter()
    t = np.geomspace(1e-12, 1.0, 241)
    worst = 0.0
    for nu in (0.1, 0.25, 0.5, 1.0):
        got = psi_kappa(PowerIndex(nu), t)
        want = t ** (2 * nu / (2 * nu + 1))
        worst = max(worst, float(np.max(np.abs(got / want - 1.0))))
    elapsed = time.perf_counter() - t0
    _report(
        capsys, 2, "psi closed forms for power indices to 1e-8",
        worst <= 1e-8, elapsed, 1.0, f"worst rel err {worst:.2e}",
    )


def _random_worst_case_fixture(rng, force_hard):
    methods = catalogue()
    m = methods[rng.integers(0, len(methods))]
    n_levels = int(rng.integers(1, 4))
    lams = np.sort(10 ** rng.uniform(-6, 0, n_levels))[::-1]
    lams = np.unique(lams)[::-1]
    mult = rng.integers(1, 3, size=lams.size)
    while mult.sum() > 5:
        mult[np.argmax(mult)] -= 1
    coeff = rng.standard_normal(int(mult.sum()))
    op = SpectralOperator.from_levels(lams, mult)
    x = SpectralElement(op, coeff)
    alpha_hi = min(m.alpha_max * 0.99, 10.0)
    alpha = 10 ** rng.uniform(-6, math.log10(alpha_hi))
    delta = 10 ** rng.uniform(-4, 1)
    if force_hard:
        d = np.abs(m.q(alpha, lams)) * np.sqrt(lams)
        top = int(np.argmax(d))
        c = np.array(coeff)
        lo = x.op.slot_offsets[top]
        c[lo : lo + int(mult[top])] = 0.0
        x = x.with_coefficients(c)
        delta = 100.0 * (np.linalg.norm(c) / max(d.max(), 1e-12) + 1.0)
    return m, alpha, x, float(delta)


def test_03_worst_case_versus_brute_force(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240817)
    n_hard = 0
    worst = 0.0
    for i in range(200):
        m, alpha, x, delta = _random_worst_case_fixture(rng, i % 7 == 0)
        res = worst_case_error(m, alpha, x, delta)
        n_hard += res.hard_case
        lam = x.op.slot_eigenvalues
        b = m.r(alpha, lam) * x.coefficients
        d = np.abs(m.q(alpha, lam)) * np.sqrt(lam)
        ref = brute_force_worst_case(b, d, delta, seed=i)
        worst = max(worst, abs(res.value / ref - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and n_hard >= 20
    _report(
        capsys, 3, "200 worst-case fixtures match brute force to 1e-6",
        ok, elapsed, 30.0, f"worst rel {worst:.2e}, {n_hard} hard cases",
    )


def test_04_deterministic_rate_circle(capsys):
    t0 = time.perf_counter()
    slopes = {}
    ok = True
    for spec in ({"method": "tikhonov"}, {"method": "landweber"}):
        cfg = ExperimentConfig(
            name="acc4",
            operation="deterministic_rate",
            problem=ProblemDescriptor(
                "single_layer_circle", {"N": 100_000, "u": 1.0}
            ),
            method=spec,
            noise=DeterministicSweep(tuple(10.0**-k for k in range(2, 8))),
            rate_model=PowerLaw(0.5),
        )
        rep = run_rate(cfg)
        slopes[spec["method"]] = rep.fit.value if rep.fit else float("nan")
        ok = ok and rep.passed and abs(rep.fit.value - 0.5) <= 0.05
    elapsed = time.perf_counter() - t0
    _report(
        capsys, 4, "oracle deterministic rate on the circle, slope 0.5",
        ok, elapsed, 120.0,
        ", ".join(f"{k}={v:.4f}" for k, v in slopes.items()),
    )


def test_05_white_noise_rate_circle(capsys):
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        name="acc5",
        operation="white_noise_rate",
        problem=ProblemDescriptor(
            "single_layer_circle", {"N": 100_000, "u": 1.0}
        ),
        method={"method": "tikhonov"},
        noise=WhiteNoiseSweep(
            tuple(10.0**-k for k in range(2, 7)), replicates=1000, seed=42
        ),
        rate_model=PowerLaw(0.4),
    )
    rep = run_rate(cfg)
    mc = {v.name: v for v in rep.verdicts}["mc_agreement"]
    ok = (
        rep.passed
        and abs(rep.fit.value - 0.4) <= 0.05
        and mc.passed
        and len(mc.detail["rows"]) == 3
    )
    elapsed = time.perf_counter() - t0
    _report(
        capsys, 5, "white noise rate on the circle, slope 0.4 + MC",
        ok, elapsed, 180.0, f"slope={rep.fit.value:.4f}",
    )


def test_06_backward_heat_log_band(capsys):
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        name="acc6",
        operation="deterministic_rate",
        problem=ProblemDescriptor(
            "backward_heat", {"t_bar": 1.0, "N": 30, "beta": 1.0}
        ),
        method={"method": "showalter"},
        noise=DeterministicSweep(tuple(10.0**-k for k in range(3, 13))),
        rate_model=LogLaw(1.0),
    )
    rep = run_rate(cfg)
    ok = rep.passed and rep.fit.value <= 2.0
    elapsed = time.perf_counter() - t0
    _report(
        capsys, 6, "backward heat log-rate band within factor 2",
        ok, elapsed, 30.0, f"band={rep.fit.value:.4f}",
    )


def test_07_bias_decay_converse(capsys):
    t0 = time.perf_counter()
    base = dict(
        name="acc7",
        operation="bias_decay",
        problem=ProblemDescriptor(
            "single_layer_circle", {"N": 2000, "u": 1.0}
        ),
        method={"method": "tikhonov"},
        nu=1.5,
    )
    borderline = run_bias_decay(ExperimentConfig(**base))
    rough = run_bias_decay(
        ExperimentConfig(
            **base, element={"kind": "coefficient_power", "p": 1.0}
        )
    )
    growth = {v.name: v for v in rough.verdicts}["ratio_growth"].detail[
        "growth"
    ]
    ok = borderline.passed and (not rough.passed) and growth >= 10.0
    elapsed = time.perf_counter() - t0
    _report(
        capsys, 7, "rougher element fails bias decay, borderline passes",
        ok, elapsed, 60.0, f"rough growth {growth:.1f}x",
    )


def test_08_vsc_zero_witnesses_and_shrunk_profile(capsys):
    t0 = time.perf_counter()
    cases = []
    sob = ProblemDescriptor(
        "sobolev_scale", {"N": 1000, "a": 1.0, "u": 0.5}
    ).build()
    cases.append(("sobolev", sob.x, sob.op, sob.kappa, 0.2))
    bh = ProblemDescriptor(
        "backward_heat", {"t_bar": 1.0, "N": 30, "beta": 1.0}
    ).build()
    cases.append(
        ("backward-heat", bh.x, bh.op, backward_heat_decay_index(1.0), 1 / 3)
    )
    ok = True
    details = []
    for label, x, op, kappa, mu in cases:
        profile = decay_to_vsc(x, op, kappa, mu)
        clean = vsc_falsify(x, op, profile, n_probes=10_000, seed=0)
        # the certified multiplier halved still clears the sharp family
        # floor, so the factor-2 shrink is applied to the floor itself
        floor = profile.family_a_floor
        case_ok = (
            clean.passed
            and clean.n_probes == 10_000
            and floor < profile.A / 2
        )
        shrunk = dataclasses.replace(profile, A=floor / 2)
        broken = vsc_falsify(x, op, shrunk, n_probes=10_000, seed=0)
        case_ok = (
            case_ok
            and not broken.passed
            and broken.worst_family == "truncation"
        )
        ok = ok and case_ok
        details.append(f"{label}: A={profile.A:.2f} floor={floor:.2f}")
    elapsed = time.perf_counter() - t0
    _report(
        capsys, 8, "VSC: 1e4 probes clean, shrunk profile yields witness",
        ok, elapsed, 60.0, "; ".join(details),
    )


def test_09_sideways_heat_symbol(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for mu in (1.0, 10.0, 100.0, 1e4):
        z = mu**0.25 * (1 + 1j) / math.sqrt(2.0)
        want = 1.0 / abs(np.cosh(z)) ** 2
        worst = max(worst, abs(sideways_heat_lambda(mu) / want - 1.0))
    mu = 1e8
    # |cosh|^2 -> e^(2a)/4 at a = mu^(1/4)/sqrt(2), so the symbol decays
    # like 4 exp(-sqrt(2) mu^(1/4)); a 1/4 prefactor would be off by 16
    ratio = sideways_heat_lambda(mu) / (
        4.0 * math.exp(-math.sqrt(2.0) * mu**0.25)
    )
    ok = worst <= 1e-12 and 0.99 <= ratio <= 1.01
    elapsed = time.perf_counter() - t0
    _report(
        capsys, 9, "sideways heat symbol: complex oracle + asymptote",
        ok, elapsed, 1.0,
        f"worst rel {worst:.2e}, asym ratio {ratio:.6f} "
        f"(vs quarter-prefactor form: {16 * ratio:.2f})",
    )


def test_10_delta_set_identity_and_gap(capsys):
    t0 = time.perf_counter()
    op1 = SpectralOperator.from_levels(np.array([1.0]))
    x1 = SpectralElement(op1, np.array([1.0]))
    alphas = np.geomspace(1e-6, 10.0, 120)
    rep = delta_set(tikhonov(), x1, alphas)
    ok = bool(np.all(np.abs(rep.deltas / alphas - 1.0) <= 1e-12))
    detail = f"single-mode max dev {np.max(np.abs(rep.deltas/alphas - 1)):.1e}"
    gaps = []
    for name, desc in fixture_registry().items():
        fixture = desc.build()
        op, x = fixture.op, fixture.x
        method = landweber(
            mu_step=0.9 / op.norm_tstar_t, op_norm_sq=op.norm_tstar_t
        )
        grid = default_alpha_grid(op, method)
        ds = delta_set(method, x, grid)
        bound = 2.0 / (1.0 - method.mu_step * op.norm_tstar_t) ** 2
        gaps.append(f"{name}={ds.gamma_hat:.2f}")
        ok = ok and ds.gamma_hat <= bound
    elapsed = time.perf_counter() - t0
    _report(
        capsys, 10, "delta set: Tikhonov identity + Landweber gap bound",
        ok, elapsed, 10.0, detail + "; " + ", ".join(gaps),
    )
