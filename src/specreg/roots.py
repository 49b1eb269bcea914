"""Bracketed roots of monotone functions of a positive variable.

Every inversion in the package (the secular equation of the worst case,
Theta^{-1}, psi and the symbol inversion behind tabulated indices) is
one call of ``bracketed_roots``.  Brackets are bisected at geometric
midpoints sqrt(lo) * sqrt(hi), which neither underflow like lo * hi nor
lose |ln x| ulps like exp of the mean log.  Each bracket stops on the
first test that holds: the caller's defect tolerance, the midpoint
rounding onto an endpoint, or a relative width of at most 4 eps.
Halving the widest bracket of positive doubles down to 4 eps takes 61
steps, so every bracket closes well inside ``MAX_STEPS``.

A caller that knows the derivative passes it as ``slope`` and gets
safeguarded Newton steps with a bisection fallback: the first trial
point is the lower bracket end, each next one the Newton point of the
last trial if it lies strictly inside the open bracket, the geometric
midpoint otherwise, and a Newton step of at most 4 eps relative is one
more stop test.  One-sided Newton converges in a few steps where fn is
close to linear near the root, as the secular function of the worst
case is (about five evaluations per solve); on strongly curved
functions it creeps, and a bracket left open at ``MAX_STEPS`` raises
DomainError as in bisection.

Brackets solved in one call do not see each other: ``fn`` is evaluated
on every bracket at every step, but a closed bracket keeps its bounds
and its last trial point, and ``steps`` counts the evaluations each
bracket made while open.  A bracket's root and step count are those it
gets when solved alone, bit for bit.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

__all__ = ["bracketed_roots", "MAX_STEPS"]

MAX_STEPS = 64
_REL_WIDTH = 4.0 * np.finfo(float).eps


def bracketed_roots(
    fn, target, lo, hi, *, increasing: bool, tol: float = 0.0, slope=None
):
    """Solve ``fn(x) = target`` on each bracket ``[lo, hi]``.

    ``fn`` maps an array of points elementwise and is monotone on every
    bracket, nondecreasing when ``increasing`` is true.  ``target``,
    ``lo`` and ``hi`` broadcast together; a target outside its bracket
    gives the nearer end.  Without ``slope`` every trial point is the
    geometric midpoint.  With ``slope`` (the derivative of ``fn``, called
    at each trial point right after ``fn``) the first trial point is
    ``lo`` and each next one is the Newton point of the last trial if it
    lies strictly inside the shrunken bracket, the midpoint otherwise.
    Returns ``(roots, steps)``: roots inside their brackets and, shaped
    like them, the number of ``fn`` evaluations each bracket made while
    open.  Raises DomainError on a bracket that is not positive and
    finite, or one still open after ``MAX_STEPS`` steps.
    """
    target, lo, hi = (
        np.array(a, dtype=float) for a in np.broadcast_arrays(target, lo, hi)
    )
    if not ((lo > 0).all() and (hi < np.inf).all()):
        raise DomainError("root brackets must be positive and finite")
    slack = tol * np.abs(target)
    sign = 1.0 if increasing else -1.0
    trial = lo.copy()
    steps = np.zeros(lo.shape, dtype=int)
    was_live, n_was = True, lo.size
    for n in range(MAX_STEPS + 1):
        mid = np.sqrt(lo) * np.sqrt(hi)
        live = (lo < mid) & (mid < hi) & (hi - lo > _REL_WIDTH * hi)
        if slope is None:
            trial = mid
        elif n:
            # a closed bracket keeps its last trial point, so one closed
            # before its first evaluation keeps lo as it does alone
            inside = (lo < newton) & (newton < hi)
            trial = np.where(was_live, np.where(inside, newton, mid), trial)
        n_open = np.count_nonzero(live)
        if n_open < n_was:
            # brackets that closed on this step made n evaluations
            np.copyto(steps, n, where=was_live & ~live)
            was_live, n_was = live, n_open
        if not n_open:
            return trial.clip(lo, hi), steps
        if n == MAX_STEPS:
            break
        defect = fn(trial) - target
        hit = live & (np.abs(defect) <= slack)
        # the root lies below trial where sign * defect > 0; a hit closes
        # its bracket onto trial
        signed = sign * defect
        np.copyto(hi, trial, where=hit | (live & (signed > 0)))
        np.copyto(lo, trial, where=hit | (live & (signed <= 0)))
        if slope is not None:
            d = slope(trial)
            with np.errstate(divide="ignore", invalid="ignore"):
                newton = trial - defect / d
            # a Newton step of at most 4 eps closes the bracket onto the
            # Newton point; the zero step of an overflowed slope does not
            move = np.abs(newton - trial)
            tiny = live & np.isfinite(d) & (move <= _REL_WIDTH * trial)
            close = newton.clip(lo, hi)
            np.copyto(lo, close, where=tiny)
            np.copyto(hi, close, where=tiny)
    raise DomainError(
        f"{int(np.count_nonzero(live))} root bracket(s) still open "
        f"after {MAX_STEPS} steps"
    )
