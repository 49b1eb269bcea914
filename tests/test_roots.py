import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specreg import param_choice, regularize, roots
from specreg.errors import DomainError
from specreg.experiments import (
    DeterministicSweep,
    ExperimentConfig,
    LogLaw,
    PowerLaw,
    default_alpha_grid,
    run_rate,
)
from specreg.filters import showalter
from specreg.problems import ProblemDescriptor, backward_heat
from specreg.roots import bracketed_roots

DECADES = st.floats(-300.0, 300.0)
EPS = np.finfo(float).eps


def _monotone(increasing):
    return np.sqrt if increasing else (lambda x: 1.0 / np.sqrt(x))


@given(
    DECADES,
    DECADES,
    st.floats(0.0, 1.0),
    st.booleans(),
    st.sampled_from([0.0, 1e-12]),
)
@settings(max_examples=300, deadline=None)
def test_any_bracket_converges_inside(a, b, frac, increasing, tol):
    lo, hi = 10.0 ** min(a, b), 10.0 ** max(a, b)
    root = min(max(lo ** (1.0 - frac) * hi**frac, lo), hi)
    fn = _monotone(increasing)
    got, steps = bracketed_roots(fn, fn(root), lo, hi, increasing=increasing, tol=tol)
    assert steps <= 64
    assert lo <= got <= hi
    assert got == pytest.approx(root, rel=1e-13 if tol == 0.0 else 3e-12)


@pytest.mark.parametrize("increasing", [True, False])
def test_array_of_brackets_matches_single_calls(increasing):
    fn = _monotone(increasing)
    lo = np.array([1e-300, 1e-5, 0.5, 2.0])
    hi = np.array([1e300, 1e-4, 0.5, 1e10])
    target = fn(np.array([3e-77, 5e-5, 0.5, 7e3]))
    got, steps = bracketed_roots(fn, target, lo, hi, increasing=increasing)
    assert steps.max() <= 64
    for i in range(lo.size):
        one, _ = bracketed_roots(fn, target[i], lo[i], hi[i], increasing=increasing)
        assert got[i] == one


def test_target_outside_its_bracket_gives_the_nearer_end():
    got, _ = bracketed_roots(np.sqrt, [1e-3, 1e3], 1.0, 4.0, increasing=True)
    np.testing.assert_allclose(got, [1.0, 4.0], rtol=1e-15)


@pytest.mark.parametrize(
    "lo,hi", [(0.0, 1.0), (-1.0, 1.0), (1.0, math.inf), (math.nan, 1.0)]
)
def test_rejects_brackets_that_are_not_positive_and_finite(lo, hi):
    with pytest.raises(DomainError):
        bracketed_roots(np.sqrt, 0.5, lo, hi, increasing=True)


def test_reports_a_bracket_left_open_at_the_cap(monkeypatch):
    monkeypatch.setattr(roots, "MAX_STEPS", 5)
    with pytest.raises(DomainError, match="still open after 5 steps"):
        bracketed_roots(np.sqrt, 3.0, 1e-300, 1e300, increasing=True)


# sqrt is concave and increasing through the origin like the secular
# function phi; -sqrt mirrors it to a decreasing function
_NEWTON = {
    True: (np.sqrt, lambda x: 0.5 / np.sqrt(x)),
    False: (lambda x: -np.sqrt(x), lambda x: -0.5 / np.sqrt(x)),
}


@given(DECADES, DECADES, st.floats(0.0, 1.0), st.booleans())
@settings(max_examples=300, deadline=None)
def test_newton_steps_converge_inside_and_agree_with_bisection(a, b, frac, increasing):
    lo, hi = 10.0 ** min(a, b), 10.0 ** max(a, b)
    root = min(max(lo ** (1.0 - frac) * hi**frac, lo), hi)
    fn, slope = _NEWTON[increasing]
    target = fn(root)
    got, steps = bracketed_roots(
        fn, target, lo, hi, increasing=increasing, slope=slope
    )
    halved, _ = bracketed_roots(fn, target, lo, hi, increasing=increasing)
    assert steps <= roots.MAX_STEPS
    assert lo <= got <= hi
    assert abs(got - halved) <= 4 * EPS * halved


def test_newton_point_outside_the_bracket_falls_back_to_the_midpoint():
    # from lo = 1e-6 the Newton point of a convex, nearly flat start lies
    # far beyond hi; the midpoint keeps the search inside
    fn = lambda x: x**4
    got, steps = bracketed_roots(
        fn, 1.0, 1e-6, 3.0, increasing=True, slope=lambda x: 4 * x**3
    )
    assert got == pytest.approx(1.0, rel=1e-15)
    assert steps < roots.MAX_STEPS


@given(
    st.lists(
        st.tuples(DECADES, DECADES, st.floats(0.0, 1.0)), min_size=2, max_size=6
    ),
    st.booleans(),
    st.booleans(),
)
# a bracket already closed before its first evaluation, beside an open one
@example([(0.0, 1.0, 0.0), (0.0, -1.4373342578244546e-16, 0.0)], False, True)
@settings(max_examples=200, deadline=None)
def test_joint_brackets_solve_as_they_do_alone(brackets, increasing, newton):
    # a bracket's root and step count must not depend on its companions,
    # on the bisection and on the slope path alike
    lo = np.array([10.0 ** min(a, b) for a, b, _ in brackets])
    hi = np.array([10.0 ** max(a, b) for a, b, _ in brackets])
    frac = np.array([f for _, _, f in brackets])
    root = np.clip(lo ** (1.0 - frac) * hi**frac, lo, hi)
    fn, slope = _NEWTON[increasing]
    kw = dict(increasing=increasing, slope=slope if newton else None)
    target = fn(root)
    got, steps = bracketed_roots(fn, target, lo, hi, **kw)
    assert steps.shape == lo.shape
    for i in range(lo.size):
        one, one_steps = bracketed_roots(fn, target[i], lo[i], hi[i], **kw)
        assert one_steps.shape == ()
        assert got[i] == one
        assert steps[i] == one_steps


def test_closed_brackets_keep_their_root_under_an_understated_slope():
    # with slope 0.3 for fn(x) = x every Newton point overshoots the root
    # by 2.3 times the defect, so a bracket that closes on its width keeps
    # getting Newton points inside it while its companions are open
    rng = np.random.default_rng(1)
    kw = dict(increasing=True, slope=lambda x: np.full(np.shape(x), 0.3))
    solved = 0
    for _ in range(100):
        ends = 10.0 ** rng.uniform(-3.0, 3.0, (2, 5))
        lo, hi = ends.min(axis=0), ends.max(axis=0)
        frac = rng.uniform(size=5)
        target = lo ** (1.0 - frac) * hi**frac
        try:
            got, steps = bracketed_roots(lambda x: x, target, lo, hi, **kw)
        except DomainError:
            continue  # a bracket crept past MAX_STEPS
        for i in range(lo.size):
            one, one_steps = bracketed_roots(
                lambda x: x, target[i], lo[i], hi[i], **kw
            )
            assert (got[i], steps[i]) == (one, one_steps)
        solved += 1
    assert solved > 80


def test_an_infinite_slope_proves_nothing():
    # every Newton step is zero; only midpoints can close the bracket
    got, steps = bracketed_roots(
        np.sqrt, 1.5, 1.0, 16.0, increasing=True, slope=lambda x: np.inf
    )
    assert got == pytest.approx(2.25, rel=1e-15)
    assert steps > 2



def _bisected_secular(c, g, delta):
    """Root of sum (c/(s+g))^2 = delta^2 by plain bisection."""
    with np.errstate(over="ignore"):
        sigma, _ = bracketed_roots(
            lambda s: np.sum((c / (s + g)) ** 2),
            delta * delta,
            math.hypot(*c[g == 0.0]) / delta or np.finfo(float).tiny,
            math.hypot(*c) / delta,
            increasing=False,
        )
    return float(sigma)


def _assert_same_root(c, g, delta):
    """Newton and bisection agree to 4 eps per unit of the root's condition
    number f / (sigma |f'|), the ulps sigma moves per ulp of f."""
    sigma, _ = regularize._solve_secular(c[None, :], g[None, :], delta)
    got = float(sigma[0])
    want = _bisected_secular(c, g, delta)
    w = (c / (want + g)) ** 2
    cond = float(np.sum(w) / (2 * np.sum(w * want / (want + g))))
    assert abs(got - want) <= 4 * EPS * (1 + cond) * want


def _secular_terms(method, alpha, x):
    """(c, g) of the worst case at alpha, grouped per level."""
    lam = x.op.eigenvalues
    d = np.abs(method.q(alpha, lam)) * np.sqrt(lam)
    c = d * np.abs(method.r(alpha, lam)) * np.sqrt(x.level_mass)
    g = d.max() ** 2 - d**2
    return c, np.where(g <= 1e-30 * d.max() ** 2, 0.0, g)


def _solvable(c, g, delta):
    """Not the hard case: f(0+) exceeds delta^2."""
    if np.any(c[g == 0.0]):
        return True
    inner = g > 0
    return float(np.sum((c[inner] / g[inner]) ** 2)) > delta * delta


def test_secular_newton_matches_bisection_on_random_problems():
    rng = np.random.default_rng(11)
    solved = 0
    for _ in range(400):
        n = int(rng.integers(1, 40))
        c = 10.0 ** rng.uniform(-8, 2, n)
        g = np.sort(10.0 ** rng.uniform(-10, 3, n))
        if rng.uniform() < 0.7:
            g[0] = 0.0
        delta = 10.0 ** rng.uniform(-12, 1)
        if not _solvable(c, g, delta):
            continue
        _assert_same_root(c, g, delta)
        solved += 1
    assert solved > 300


def test_secular_newton_matches_bisection_on_heat_spectra():
    # 30 levels whose propagation factors span hundreds of decades at
    # small alpha, with the smallest budget of the log-band sweeps
    fixture = backward_heat(1.0, 30, 1.0)
    op, x = fixture.op, fixture.x
    m = showalter()
    delta = 1e-12
    solved = 0
    for alpha in default_alpha_grid(op, m)[::20]:
        c, g = _secular_terms(m, alpha, x)
        if not _solvable(c, g, delta):
            continue
        _assert_same_root(c, g, delta)
        solved += 1
    assert solved > 100


def _count_bracket_steps(monkeypatch):
    """Record the steps of every bracket the worst case solves.

    The primal-dual prune of ``grid_inf_error`` keeps every row, so the
    blocked row kernel solves each sandwich survivor to the end.
    """
    steps = []
    monkeypatch.setattr(param_choice, "_may_win", lambda lower, *_: np.ones(lower.shape, bool))

    def counting(*args, **kwargs):
        root, n = bracketed_roots(*args, **kwargs)
        steps.extend(np.ravel(n).tolist())
        return root, n

    monkeypatch.setattr(regularize, "bracketed_roots", counting)
    return steps


def test_circle_oracle_rows_solve_in_few_newton_steps(monkeypatch):
    steps = _count_bracket_steps(monkeypatch)
    for method in ("tikhonov", "landweber"):
        run_rate(
            ExperimentConfig(
                name="newton-steps",
                operation="deterministic_rate",
                problem=ProblemDescriptor(
                    "single_layer_circle", {"N": 10_000, "u": 1.0}
                ),
                method={"method": method},
                noise=DeterministicSweep((1e-1, 1e-2, 1e-3, 1e-4)),
                rate_model=PowerLaw(0.5),
            )
        )
    assert len(steps) > 100
    assert max(steps) <= 8


def test_heat_log_band_rows_solve_in_few_newton_steps(monkeypatch):
    # the sweep of the backward heat log-band acceptance run: 18 levels
    # whose propagation factors span hundreds of decades
    steps = _count_bracket_steps(monkeypatch)
    run_rate(
        ExperimentConfig(
            name="newton-steps-heat",
            operation="deterministic_rate",
            problem=ProblemDescriptor(
                "backward_heat", {"t_bar": 1.0, "N": 30, "beta": 1.0}
            ),
            method={"method": "showalter"},
            noise=DeterministicSweep(tuple(10.0**-k for k in range(3, 13))),
            rate_model=LogLaw(1.0),
        )
    )
    assert len(steps) > 1000
    assert max(steps) <= 13
