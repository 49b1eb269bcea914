import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specreg import roots
from specreg.errors import DomainError
from specreg.roots import bracketed_roots

DECADES = st.floats(-300.0, 300.0)


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
    assert steps <= 64
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
    with pytest.raises(DomainError, match="still open after 5 halvings"):
        bracketed_roots(np.sqrt, 3.0, 1e-300, 1e300, increasing=True)
