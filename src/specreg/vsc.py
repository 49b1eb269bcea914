"""Variational source conditions for diagonal operators.

A variational source condition (VSC) for an exact solution ``x_true``
asserts that for every candidate element ``x``

    2 <x_true, x_true - x>  <=  1/2 ||x - x_true||^2 + psi(||T x - T x_true||^2)

with a concave index function psi.  Conditions of this form encode
smoothness of ``x_true`` relative to the operator without requiring a
spectral representation of the smoothness class, and they convert
directly into convergence rates for variational regularization.

This module provides four pieces of calculus around the inequality:

* :func:`vsc_residual` evaluates the defect of the inequality at a
  single probe element (``<= 0`` means the VSC holds there);
* :func:`general_strategy_psi` builds psi from a family of projections
  with known approximation and stability moduli;
* :func:`decay_to_vsc` / :func:`vsc_to_decay_bound` convert between
  spectral-decay certificates ``||E_lam x_true|| <= kappa(lam)`` and a
  VSC with ``psi = A * psi_kappa``, tracking the explicit constant ``A``
  in both directions;
* :func:`spectral_sc_to_vsc` covers the classical representation
  ``x_true = phi(T*T) w`` with ``||w|| <= rho``, which yields
  ``psi(delta^2) = 4 rho^2 phi(Theta^{-1}(delta / rho))^2``.

Because the conversions only certify the inequality up to grid-sampled
structure checks, :func:`vsc_falsify` stress-tests a profile against
three adversarial probe families and reports the worst residual found.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, OutOfRangeError
from .index_functions import (
    ComposedIndex,
    IndexFunction,
    PsiProfile,
    check_structure,
    mu_holds_on_grid,
    theta_inverse,
)
from .spectral import SpectralElement, SpectralOperator, _require_same_operator, xtk_norm

__all__ = [
    "VscProfile",
    "ProjectionFamily",
    "FalsificationReport",
    "vsc_residual",
    "general_strategy_psi",
    "decay_to_vsc",
    "vsc_to_decay_bound",
    "spectral_sc_to_vsc",
    "vsc_falsify",
]

# Resolution of the log grid used for the sup term in the decay-to-VSC
# constant; the ratio sqrt(t)/psi(t) vanishes at 0, so a grid maximum is
# a faithful surrogate for the sup at this resolution.
_SUP_GRID_POINTS = 200
_SUP_GRID_DECADES = 16


@dataclasses.dataclass(frozen=True)
class VscProfile:
    """A certified right-hand side ``psi(t) = A * psi_kappa(arg_scale * t)``.

    ``kappa`` is the index function in whose terms the profile was
    certified (already rescaled where the construction demanded a
    normalization; ``scale`` records the factor that was applied, or the
    source-condition radius for the representation route).
    ``family_a_floor`` is the sharp multiplier for the truncation probe
    family: the largest value of A at which some truncation of the
    certified element makes the inequality an equality.  Any profile
    with ``A`` below that floor is falsified by a truncation witness.
    """

    A: float
    kappa: IndexFunction
    psi_profile: PsiProfile
    scale: float = 1.0
    arg_scale: float = 1.0
    family_a_floor: float | None = None

    def __post_init__(self):
        if self.A < 0:
            raise DomainError("profile multiplier A must be >= 0")
        if self.arg_scale <= 0:
            raise DomainError("arg_scale must be positive")

    def psi(self, t):
        """Evaluate psi at t (scalar or array), clamped at the table edge.

        Clamping extends psi as a constant beyond the certified range;
        psi is nondecreasing, so the extension is a lower bound and every
        downstream inequality check stays conservative.
        """
        t = np.asarray(t, dtype=float)
        out = self.A * self.psi_profile.eval_many(
            np.atleast_1d(self.arg_scale * t), clamp=True
        )
        return float(out[0]) if t.ndim == 0 else out

    def to_dict(self) -> dict:
        return {
            "A": self.A,
            "kappa": self.kappa.to_dict(),
            "scale": self.scale,
            "arg_scale": self.arg_scale,
        }


@dataclasses.dataclass(frozen=True)
class ProjectionFamily:
    """Approximation/stability moduli of a family of orthogonal projections.

    For each label rho the family certifies
    ``||(I - P_rho) x_true|| <= kappa_of_rho`` and
    ``<x_true, P_rho (x_true - x)> <= sigma_of_rho * ||T x_true - T x||``
    with a uniform defect constant ``c`` in
    ``||(I - P_rho)(x_true - x)|| <= (c + 1) ||x_true - x||``.
    """

    rho_grid: Sequence
    kappa_of_rho: np.ndarray
    sigma_of_rho: np.ndarray
    c: float = 0.0

    def __post_init__(self):
        kap = np.asarray(self.kappa_of_rho, dtype=float)
        sig = np.asarray(self.sigma_of_rho, dtype=float)
        if kap.size == 0:
            raise DomainError("projection family must be nonempty")
        if kap.shape != sig.shape or len(self.rho_grid) != kap.size:
            raise DomainError("rho_grid, kappa_of_rho, sigma_of_rho must align")
        if np.any(kap <= 0) or np.any(sig <= 0):
            raise DomainError("kappa_of_rho and sigma_of_rho must be positive")
        if self.c < 0:
            raise DomainError("defect constant c must be >= 0")
        kap.setflags(write=False)
        sig.setflags(write=False)
        object.__setattr__(self, "kappa_of_rho", kap)
        object.__setattr__(self, "sigma_of_rho", sig)


def general_strategy_psi(family: ProjectionFamily, t):
    """psi(t) = 2 inf_rho [ (c+1)^2 kappa(rho)^2 + sigma(rho) sqrt(t) ].

    The infimum over a fixed family of affine functions of sqrt(t), so
    the result is nondecreasing and concave in sqrt(t).  Accepts scalar
    or array t.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise DomainError("psi argument must be >= 0")
    sq = np.sqrt(np.atleast_1d(t_arr))
    vals = 2.0 * (
        (family.c + 1.0) ** 2 * family.kappa_of_rho[:, None] ** 2
        + family.sigma_of_rho[:, None] * sq[None, :]
    )
    out = vals.min(axis=0)
    return float(out[0]) if t_arr.ndim == 0 else out


def vsc_residual(
    x_true: SpectralElement,
    x: SpectralElement,
    op: SpectralOperator,
    profile: VscProfile,
) -> float:
    """Defect of the variational inequality at the probe x.

    Returns ``2 <x_true, x_true - x> - 1/2 ||x - x_true||^2
    - psi(||T x - T x_true||^2)``; the VSC holds at x iff this is <= 0.
    """
    _require_same_operator(x_true.op, op)
    _require_same_operator(x.op, op)
    h = x_true.coefficients - x.coefficients
    inner = float(np.dot(x_true.coefficients, h))
    h_norm_sq = float(np.dot(h, h))
    image_sq = float(np.dot(op.slot_eigenvalues, h * h))
    return 2.0 * inner - 0.5 * h_norm_sq - profile.psi(image_sq)


def _truncation_sums(
    x_true: SpectralElement, op: SpectralOperator
) -> tuple[np.ndarray, np.ndarray]:
    """``||E_lam x_true||^2`` and ``||T E_lam x_true||^2`` at every eigenvalue.

    Both in the descending eigenvalue order of ``op``: the squared norm
    and image norm of the part that the truncation (I - E_lam) x_true
    removes.
    """
    sq = x_true.level_mass
    tail = np.cumsum(sq[::-1])[::-1]
    image = np.cumsum((op.eigenvalues * sq)[::-1])[::-1]
    return tail, image


def _truncation_floor(
    x_true: SpectralElement, op: SpectralOperator, psi_profile: PsiProfile
) -> float:
    """Sharp multiplier of the truncation family.

    For each eigenvalue lam the probe (I - E_lam) x_true has residual
    (3/2) ||E_lam x_true||^2 - A psi(||T E_lam x_true||^2); the floor is
    the largest A at which some truncation reaches zero residual.
    """
    tail, image = _truncation_sums(x_true, op)
    keep = image > 0
    if not np.any(keep):
        return 0.0
    psi_vals = psi_profile.eval_many(image[keep], clamp=True)
    return float(np.max(1.5 * tail[keep] / psi_vals))


def decay_to_vsc(
    x_true: SpectralElement,
    op: SpectralOperator,
    kappa: IndexFunction,
    mu: float,
) -> VscProfile:
    """Convert a spectral-decay certificate into a VSC profile.

    Requires ``t -> kappa(t)^2 / t^(1-mu)`` nonincreasing and
    ``kappa * kappa`` concave (both certified on a grid spanning the
    spectrum).  kappa is rescaled internally so that the decay norm of
    x_true equals one; the applied factor is reported as ``scale`` and
    the returned profile is expressed in the rescaled index.  The
    certified multiplier is

        A = 2 (1 + 1/mu) + 2 kappa(||T*T||) * sup_t sqrt(t) / psi_kappa(t)

    with the sup taken over a log grid covering every argument at which
    psi is evaluated inside the non-trivial branch of the inequality
    (the branch boundary is 4 ||T|| ||x_true||; arguments of psi run up
    to its square, so the grid spans up to the larger of the two).
    """
    if not 0.0 < mu < 1.0:
        raise DomainError("mu must lie in (0, 1)")
    _require_same_operator(x_true.op, op)
    norm_x = x_true.norm()
    if norm_x == 0.0:
        return VscProfile(
            A=0.0,
            kappa=kappa,
            psi_profile=PsiProfile.build(kappa),
            scale=0.0,
            family_a_floor=0.0,
        )

    lam_lo = float(op.eigenvalues[-1])
    lam_hi = float(op.norm_tstar_t)
    grid = np.unique(
        np.concatenate([np.geomspace(lam_lo * 1e-2, lam_hi, 256), op.eigenvalues])
    )
    grid = grid[grid <= kappa.domain_max]
    if not mu_holds_on_grid(kappa, mu, grid):
        raise DomainError(
            "kappa(t)^2 / t^(1-mu) is not nonincreasing on the certification grid"
        )
    if not check_structure(kappa, grid).kk_concave:
        raise DomainError("kappa * kappa is not concave on the certification grid")

    scale = xtk_norm(x_true, kappa)
    if not math.isfinite(scale) or scale <= 0:
        raise DomainError("decay norm of x_true under kappa is not finite positive")
    kappa_s = ComposedIndex(kappa, scale=scale, mu=mu)

    branch = 4.0 * op.norm_t * norm_x
    t_cover = max(branch, branch**2)
    try:
        table_hi = theta_inverse(kappa_s, math.sqrt(t_cover))
    except OutOfRangeError:
        table_hi = None  # table caps at the kappa domain edge
    psi_profile = PsiProfile.build(kappa_s, lam_max=table_hi)

    t_grid = np.geomspace(t_cover * 10.0**-_SUP_GRID_DECADES, t_cover, _SUP_GRID_POINTS)
    sup_term = float(np.max(np.sqrt(t_grid) / psi_profile.eval_many(t_grid, clamp=True)))
    kappa_at_norm = float(kappa_s(min(lam_hi, kappa_s.domain_max * (1 - 1e-12))))
    a_const = 2.0 * (1.0 + 1.0 / mu) + 2.0 * kappa_at_norm * sup_term

    return VscProfile(
        A=a_const,
        kappa=kappa_s,
        psi_profile=psi_profile,
        scale=scale,
        family_a_floor=_truncation_floor(x_true, op, psi_profile),
    )


def vsc_to_decay_bound(profile: VscProfile, lam: float, kappa: IndexFunction) -> float:
    """Spectral-decay bound implied by a VSC with psi = A psi_kappa.

    Returns ``sqrt(2A/3) * kappa((2A/3) lam)``; if the inflated argument
    leaves the domain of kappa the bound falls back to
    ``sqrt(2A/3) * max(1, sqrt(2A/3)) * kappa(lam)``, which dominates the
    primary form by concavity of kappa * kappa.
    """
    if lam <= 0:
        raise DomainError("lam must be positive")
    factor = math.sqrt(2.0 * profile.A / 3.0)
    inflated = (2.0 * profile.A / 3.0) * lam
    if inflated <= kappa.domain_max:
        return factor * float(kappa(inflated))
    return factor * max(1.0, factor) * float(kappa(lam))


def spectral_sc_to_vsc(phi: IndexFunction, rho: float) -> VscProfile:
    """VSC for an element representable as phi(T*T) w with ||w|| <= rho.

    Requires phi^2 concave (certified on the psi table grid).  The
    resulting profile evaluates ``psi(t) = 4 rho^2 psi_phi(t / rho^2)``,
    i.e. ``psi(delta^2) = 4 rho^2 phi(Theta^{-1}(delta / rho))^2``.
    """
    if rho <= 0:
        raise DomainError("rho must be positive")
    psi_profile = PsiProfile.build(phi)
    if not check_structure(phi, psi_profile.lam_table).kk_concave:
        raise DomainError("phi * phi is not concave on the certification grid")
    return VscProfile(
        A=4.0 * rho**2,
        kappa=phi,
        psi_profile=psi_profile,
        scale=rho,
        arg_scale=1.0 / rho**2,
    )


@dataclasses.dataclass(frozen=True)
class FalsificationReport:
    """Worst residual found while stress-testing a profile."""

    n_probes: int
    worst_residual: float
    worst_family: str
    witness: np.ndarray | None
    tol: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "n_probes": self.n_probes,
            "worst_residual": self.worst_residual,
            "worst_family": self.worst_family,
            "witness": None if self.witness is None else self.witness.tolist(),
            "tol": self.tol,
            "passed": self.passed,
        }


# bytes of one (probe block x slots) double temporary in the Gaussian family
_PROBE_BYTES = 256 * 1024


# residuals of a probe family and the witness probe of one of its rows
_Family = tuple[np.ndarray, Callable[[int], np.ndarray]]


def _truncation_family(
    x_true: SpectralElement, op: SpectralOperator, profile: VscProfile, n: int
) -> _Family:
    """Residuals of the truncations (I - E_lam) x_true at the first n
    eigenvalues, and the witness of a row.

    The probe x = (I - E_lam) x_true has h = x_true - x = E_lam x_true,
    so its residual is 2 tail - tail/2 - psi(image) with the tail sums
    of :func:`_truncation_sums`: O(levels), no probe vectors.
    """
    tail, image = _truncation_sums(x_true, op)
    res = 1.5 * tail[:n] - profile.psi(image[:n])

    def witness(i: int) -> np.ndarray:
        out = x_true.coefficients.copy()
        out[op.slot_offsets[i] :] = 0.0  # zero the slots with lam_j <= lam_i
        return out

    return res, witness


def _gaussian_family(
    x_true: SpectralElement,
    op: SpectralOperator,
    profile: VscProfile,
    rng: np.random.Generator,
    radii: np.ndarray,
) -> _Family:
    """Residuals of the probes x_true + p with Gaussian directions p of
    norms ``radii``, and the witness of a row.

    The directions are drawn from ``rng`` in blocks of about
    ``_PROBE_BYTES``; a block keeps only <p, x_true>, ||p||^2 and
    ||T p||^2 per probe and the generator state it started from, and
    psi is evaluated once for the whole family.  A witness redraws its
    block from the saved state and leaves ``rng`` as it found it.
    """
    coef = x_true.coefficients
    lam = op.slot_eigenvalues
    n = len(radii)
    rows = max(1, _PROBE_BYTES // (8 * len(coef)))
    inner = np.empty(n)
    norms_sq = np.empty(n)
    image_sq = np.empty(n)
    states = []

    def draw(start: int) -> np.ndarray:
        p = rng.standard_normal((min(rows, n - start), len(coef)))
        p /= np.linalg.norm(p, axis=1, keepdims=True)
        p *= radii[start : start + len(p), None]
        return p

    for start in range(0, n, rows):
        states.append(rng.bit_generator.state)
        p = draw(start)
        block = slice(start, start + len(p))
        inner[block] = p @ coef
        norms_sq[block] = np.einsum("ij,ij->i", p, p)
        image_sq[block] = p**2 @ lam
    # probe x = x_true + p means h = x_true - x = -p
    res = -2.0 * inner - 0.5 * norms_sq - profile.psi(image_sq)

    def witness(i: int) -> np.ndarray:
        after = rng.bit_generator.state
        rng.bit_generator.state = states[i // rows]
        p = draw(i - i % rows)
        rng.bit_generator.state = after
        return coef + p[i % rows]

    return res, witness


def _spike_family(
    x_true: SpectralElement,
    op: SpectralOperator,
    profile: VscProfile,
    slots: np.ndarray,
    values: np.ndarray,
) -> _Family:
    """Residuals of the spikes x_true + v e_s for slots s and values v,
    and the witness of a row.

    With h = -v e_s the residual is -2 v c_s - v^2/2 - psi(lam_s v^2),
    O(1) per probe.
    """
    coef = x_true.coefficients
    sq = values * values
    res = (
        -2.0 * (values * coef[slots])
        - 0.5 * sq
        - profile.psi(sq * op.slot_eigenvalues[slots])
    )

    def witness(i: int) -> np.ndarray:
        out = coef.copy()
        out[slots[i]] += values[i]
        return out

    return res, witness


def vsc_falsify(
    x_true: SpectralElement,
    op: SpectralOperator,
    profile: VscProfile,
    n_probes: int = 10_000,
    seed: int = 0,
    scales: np.ndarray | None = None,
    tol: float | None = None,
) -> FalsificationReport:
    """Search for a probe with positive VSC residual.

    Three probe families: (a) truncations (I - E_lam) x_true at every
    eigenvalue, the family that is extremal for profiles built from
    decay certificates; (b) Gaussian perturbations of x_true with norms
    log-spaced across ``scales * ||x_true||``, reaching beyond four
    times the norm so both branches of the inequality are exercised;
    (c) single-coordinate spikes at the same scales.  Returns the worst
    (most positive) residual, its witness, and a pass verdict against a
    rounding tolerance.

    Truncation residuals come from level sums and spike residuals in
    closed form; Gaussian probes are drawn in fixed-size blocks and
    reduced to three numbers each.  Time is O(levels + probes * slots)
    and memory O(slots + probes): no probes x slots array is formed, and
    only the winning witness is built.
    """
    _require_same_operator(x_true.op, op)
    norm_x = x_true.norm()
    if scales is None:
        scales = np.geomspace(1e-3, 10.0, 8)
    if tol is None:
        tol = 1e-10 * (1.0 + norm_x**2)

    n_trunc = min(len(op.eigenvalues), n_probes)
    families = [("truncation", *_truncation_family(x_true, op, profile, n_trunc))]
    used = n_trunc

    if norm_x > 0 and used < n_probes:
        rng = np.random.default_rng(seed)
        n_slots = op.n_slots
        remaining = n_probes - used
        n_spike = min(remaining // 4, 2 * n_slots * len(scales))
        n_gauss = remaining - n_spike

        # (b) Gaussian perturbations, norms cycled over scales
        radii = scales[np.arange(n_gauss) % len(scales)] * norm_x
        families.append(("gaussian", *_gaussian_family(x_true, op, profile, rng, radii)))

        # (c) coordinate spikes x_true +/- t e_j
        slots = rng.integers(0, n_slots, size=n_spike)
        signs = np.where(rng.integers(0, 2, size=n_spike) == 0, -1.0, 1.0)
        radii = scales[np.arange(n_spike) % len(scales)] * norm_x
        families.append(("spike", *_spike_family(x_true, op, profile, slots, signs * radii)))
        used += n_gauss + n_spike

    # the first probe of the largest residual, in family order
    worst, worst_family, winner = -math.inf, "gaussian", None
    for family, res, witness_of in families:
        if res.size and res.max() > worst:
            i = int(np.argmax(res))
            worst, worst_family = float(res[i]), family
            winner = functools.partial(witness_of, i)
    witness = None if winner is None else winner()

    return FalsificationReport(
        n_probes=used,
        worst_residual=worst,
        worst_family=worst_family,
        witness=witness,
        tol=tol,
        passed=worst <= tol,
    )
