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
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

__all__ = ["bracketed_roots", "MAX_STEPS"]

MAX_STEPS = 64
_REL_WIDTH = 4.0 * np.finfo(float).eps


def bracketed_roots(fn, target, lo, hi, *, increasing: bool, tol: float = 0.0):
    """Solve ``fn(x) = target`` on each bracket ``[lo, hi]`` by bisection.

    ``fn`` maps an array of points elementwise and is monotone on every
    bracket, nondecreasing when ``increasing`` is true.  ``target``,
    ``lo`` and ``hi`` broadcast together; a target outside its bracket
    gives the nearer end.  Returns ``(roots, steps)``: roots inside their
    brackets and the number of ``fn`` evaluations.  Raises DomainError
    on a bracket that is not positive and finite, or one still open
    after ``MAX_STEPS`` halvings.
    """
    target, lo, hi = (
        np.array(a, dtype=float) for a in np.broadcast_arrays(target, lo, hi)
    )
    if not (np.all(lo > 0) and np.all(hi < np.inf)):
        raise DomainError("root brackets must be positive and finite")
    slack = tol * np.abs(target)
    sign = 1.0 if increasing else -1.0
    for steps in range(MAX_STEPS + 1):
        mid = np.sqrt(lo) * np.sqrt(hi)
        live = (lo < mid) & (mid < hi) & (hi - lo > _REL_WIDTH * hi)
        if not live.any():
            return np.clip(mid, lo, hi), steps
        if steps == MAX_STEPS:
            break
        defect = fn(mid) - target
        hit = np.abs(defect) <= slack
        # the root lies below mid where sign * defect > 0; a hit closes
        # its bracket onto mid
        np.copyto(hi, mid, where=live & (hit | (sign * defect > 0)))
        np.copyto(lo, mid, where=live & (hit | (sign * defect <= 0)))
    raise DomainError(
        f"{int(np.count_nonzero(live))} root bracket(s) still open "
        f"after {MAX_STEPS} halvings"
    )
