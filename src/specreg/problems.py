"""Benchmark problem factories.

Each factory returns a :class:`Fixture`: the diagonalized forward
operator, a solution fixture, the index function that describes the
fixture's smoothness relative to the operator, and the slot layout the
fixture's coefficients are built from.  Solution fixtures are borderline
elements: their coefficients (1 v f)^(-p) over the slot frequencies f
are tuned so the decay norm under kappa is finite while any strictly
stronger power or log norm diverges, which makes them the informative
probes for rate and converse checks.

The sideways-heat problem has continuous spectrum on the line; its
fixture discretizes the frequency axis and is a model surrogate, so
rate checks against it exercise the transfer-function and index
formulas, not the continuous problem.  Factories never build spatial
representations; everything stays in sequence space.
"""

from __future__ import annotations

import dataclasses
import inspect
import math

import numpy as np

from .errors import COUNT_CEILING, DomainError, field, number, section, whole
from .index_functions import (
    CappedIndex,
    ComposedIndex,
    IndexFunction,
    LogPowerIndex,
    PowerIndex,
    TabulatedIndex,
)
from .roots import bracketed_roots
from .spectral import SpectralElement, SpectralOperator

__all__ = [
    "Fixture",
    "ProblemDescriptor",
    "single_layer_circle",
    "sobolev_scale",
    "backward_heat",
    "backward_heat_decay_index",
    "sideways_heat",
    "sideways_heat_lambda",
    "gradiometry",
    "gradiometry_lambda",
    "kappa_from_lambda",
    "fixture_registry",
]

# Eigenvalues below this are dropped: they are meaningless against the
# inversion tables, which bottom out at normal-range doubles.
_EIGENVALUE_FLOOR = 1e-280


@dataclasses.dataclass(frozen=True, eq=False)
class Fixture:
    """A test problem with its borderline solution and slot layout.

    ``frequencies`` labels every slot of ``op``; the solution ``x`` has
    coefficients (1 v f)^(-exponent).  Frequency f carries at most
    ``mult_weight * f**mult_degree`` slots, the multiplicity law the
    truncation tail bound sums over.
    """

    op: SpectralOperator
    kappa: IndexFunction
    frequencies: np.ndarray
    exponent: float
    mult_weight: int
    mult_degree: int
    x: SpectralElement = dataclasses.field(init=False)

    def __post_init__(self):
        freq = np.asarray(self.frequencies, dtype=float).copy()
        freq.setflags(write=False)
        object.__setattr__(self, "frequencies", freq)
        object.__setattr__(self, "x", self.element(self.exponent))

    def element(self, p: float) -> SpectralElement:
        """The element with coefficients (1 v f)^(-p) over the slots."""
        return SpectralElement(self.op, np.maximum(self.frequencies, 1.0) ** -p)

    def tail_norm(self, p: float | None = None) -> float:
        """Upper bound on the l2 norm of coefficients (1 v f)^(-p) beyond
        the largest frequency F; ``p`` defaults to the fixture exponent.

        Integral comparison over at most w f^d slots per frequency:
        sum_{f > F} w f^(d - 2p) <= w F^((1 + d) - 2p) / (2p - (1 + d)).
        """
        p = self.exponent if p is None else p
        d = self.mult_degree
        if 2.0 * p <= 1 + d:
            raise DomainError(f"coefficient exponent must exceed {(1 + d) / 2:g}")
        f_max = float(self.frequencies.max())
        return math.sqrt(
            self.mult_weight * f_max ** ((1 + d) - 2.0 * p) / (2.0 * p - (1 + d))
        )


def _fixture(freq, eig, mult, p, kappa, mult_weight, mult_degree, note=""):
    """Fixture over levels ``eig``, in any order, with multiplicities
    ``mult``; every slot of a level carries the level's ``freq``."""
    order = np.argsort(-eig, kind="stable")
    op = SpectralOperator.from_levels(eig, mult, truncation_note=note)
    frequencies = np.repeat(freq[order], mult[order])
    return Fixture(op, kappa, frequencies, p, mult_weight, mult_degree)


def single_layer_circle(N: int, u: float) -> Fixture:
    """Single-layer potential on a circle of radius e.

    The operator maps Fourier mode n to itself scaled by 1/|n| (the
    zero mode picks up the log-radius factor, which is 1 at radius e),
    so T*T has eigenvalue 1 on the merged {0, +-1} modes and 1/n^2 with
    multiplicity 2 for n >= 2.  The fixture coefficients are
    (1 v |n|)^(-u - 1/2), borderline for the decay index Power(u/2).
    """
    if N < 1:
        raise DomainError("N must be >= 1")
    n = np.arange(0, N + 1, dtype=float)
    mult = np.where(n == 0, 1, 2)
    eig = np.maximum(n, 1.0) ** -2.0
    return _fixture(n, eig, mult, u + 0.5, PowerIndex(u / 2.0), 2, 0)


def sobolev_scale(N: int, a: float, u: float) -> Fixture:
    """Generic one-dimensional Sobolev smoothing scale.

    lam_m = m^(-2a) with multiplicity 1 and fixture coefficients
    m^(-u - 1/2); the matching decay index is Power(u / (2a)).  Higher
    dimensional spectra are an extension point, not shipped.
    """
    if N < 1:
        raise DomainError("N must be >= 1")
    if a <= 0:
        raise DomainError("a must be positive")
    m = np.arange(1, N + 1, dtype=float)
    kappa = PowerIndex(u / (2.0 * a))
    return _fixture(m, m ** (-2.0 * a), np.ones(N, int), u + 0.5, kappa, 1, 0)


def _apply_floor(eig: np.ndarray, requested: str) -> tuple[np.ndarray, str]:
    keep = eig >= _EIGENVALUE_FLOOR
    if np.all(keep):
        return eig, ""
    kept = int(np.sum(keep))
    note = (
        f"kept {kept} of {requested} levels: "
        f"eigenvalues below {_EIGENVALUE_FLOOR:g} dropped"
    )
    return eig[keep], note


def backward_heat(t_bar: float, N: int, beta: float) -> Fixture:
    """Reconstruct initial heat from the state at time t_bar (circle).

    Laplacian frequencies mu_n = n^2 give eigenvalues exp(-2 t_bar n^2)
    with multiplicity 2 for n >= 1.  The reconstruction index is
    kappa(alpha) = ((1/(2 t_bar)) ln(1/alpha))^(-1/2), plateaued above
    the first positive-frequency eigenvalue so it stays finite at the
    zero mode.  Coefficients (1 v n)^(-2 beta - 1/2) sit on the border
    of the 2*beta-smoothness class.  Levels whose eigenvalues underflow
    the working range are dropped and recorded on the operator.
    """
    if t_bar <= 0:
        raise DomainError("t_bar must be positive")
    if N < 1:
        raise DomainError("N must be >= 1")
    n = np.arange(0, N + 1, dtype=float)
    eig, note = _apply_floor(np.exp(-2.0 * t_bar * n**2), f"n <= {N}")
    n = n[: len(eig)]
    kappa = CappedIndex(
        ComposedIndex(LogPowerIndex(0.5, 0.0), scale=math.sqrt(2.0 * t_bar)),
        cap_at=math.exp(-2.0 * t_bar),
    )
    mult = np.where(n == 0, 1, 2)
    return _fixture(n, eig, mult, 2.0 * beta + 0.5, kappa, 2, 0, note)


def backward_heat_decay_index(beta: float, mu: float = 1.0 / 3.0) -> IndexFunction:
    """Decay index for converting the heat fixture into a variational
    source condition.

    The fixture tails behave like (ln(1/lam))^(-beta); a plain log index
    fails the decay-exponent and concavity prechecks near lam = 1, so
    the returned index carries the smallest argument shift that makes
    kappa(t)^2 / t^(1-mu) nonincreasing and kappa*kappa concave on the
    whole spectral range (0, 1].
    """
    if not 0 < mu < 1:
        raise DomainError("mu must lie in (0, 1)")
    if beta <= 0:
        raise DomainError("beta must be positive")
    shift = max(2.0 * beta / (1.0 - mu), 2.0 * beta + 1.0) + 0.1
    return LogPowerIndex(beta, shift, mu=mu)


def sideways_heat_lambda(mu):
    """Transfer-function modulus of the sideways heat problem.

    |cosh sqrt(i sqrt(mu))|^(-2) with the principal square root equals
    1 / (sinh(a)^2 + cos(a)^2) at a = mu^(1/4) / sqrt(2).  Evaluated in
    the rearranged form

        4 e^(-2a) / (1 + (4 cos(a)^2 - 2) e^(-2a) + e^(-4a))

    which is algebraically identical but stays in range for large a
    where sinh(a)^2 overflows.  mu = 0 gives exactly 1.
    """
    mu_arr = np.asarray(mu, dtype=float)
    if np.any(mu_arr < 0):
        raise DomainError("mu must be >= 0")
    a = mu_arr**0.25 / math.sqrt(2.0)
    e2 = np.exp(-2.0 * a)
    out = 4.0 * e2 / (1.0 + (4.0 * np.cos(a) ** 2 - 2.0) * e2 + e2**2)
    return float(out) if mu_arr.ndim == 0 else out


def sideways_heat(N: int, beta: float) -> Fixture:
    """Recover the boundary temperature on the inaccessible side.

    The continuous line spectrum is discretized as mu_n = n^2 with
    multiplicity 1 (a documented model surrogate).  Eigenvalues follow
    the transfer function; kappa inverts it past t0 = 1 and plateaus at
    1 above lambda(1).
    """
    if N < 1:
        raise DomainError("N must be >= 1")
    n = np.arange(0, N + 1, dtype=float)
    eig, note = _apply_floor(sideways_heat_lambda(n**2), f"n <= {N}")
    n = n[: len(eig)]
    kappa = _tabulated_kappa(sideways_heat_lambda, t0=1.0, alpha_min=eig[-1] / 10.0)
    mult = np.ones(len(eig), int)
    return _fixture(n, eig, mult, 2.0 * beta + 0.5, kappa, 1, 0, note)


def gradiometry_lambda(mu, R: float):
    """Symbol of the satellite gradiometry forward map at orbit ratio R."""
    mu_arr = np.asarray(mu, dtype=float)
    ell = np.sqrt(0.5 + mu_arr)
    out = (0.5 + ell) ** 2 * (1.5 + ell) ** 2 * R ** (-2.0 * ell)
    return float(out) if mu_arr.ndim == 0 else out


def gradiometry(R: float, L: int, beta: float) -> Fixture:
    """Downward continuation of gravity gradients from orbit radius R
    (relative to the Earth radius) to the surface.

    Sphere frequencies mu_l = l(l+1) carry multiplicity 2l + 1.  The
    symbol has a polynomial head that may grow before the exponential
    factor takes over; the piecewise inversion only needs monotonicity
    past the first positive frequency, so the zero mode is exempt, but
    any growth from l = 1 onward means the symbol cannot be inverted on
    the sampled range and the factory rejects R with the witness pair.
    """
    if L < 2:
        raise DomainError("L must be >= 2")
    if R <= 1:
        raise DomainError("R must exceed 1")
    ell = np.arange(0, L + 1, dtype=float)
    mu = ell * (ell + 1.0)
    lam_all = gradiometry_lambda(mu, R)
    rising = np.nonzero(np.diff(lam_all[1:]) >= 0)[0]
    if rising.size:
        i = int(rising[0]) + 1
        raise DomainError(
            "symbol not decreasing past the first positive frequency: "
            f"lambda({mu[i]:g}) = {lam_all[i]:.6g} <= "
            f"lambda({mu[i + 1]:g}) = {lam_all[i + 1]:.6g}; increase R"
        )
    eig, note = _apply_floor(lam_all, f"l <= {L}")
    ell = ell[: len(eig)]
    kappa = _tabulated_kappa(
        lambda m: gradiometry_lambda(m, R), t0=2.0, alpha_min=eig[-1] / 10.0
    )
    # 2l + 1 <= 3l slots at frequency l >= 1
    mult = 2 * ell.astype(int) + 1
    return _fixture(ell, eig, mult, 2.0 * beta + 1.0, kappa, 3, 1, note)


def kappa_from_lambda(lambda_fn, t0: float, alpha):
    """Smoothness index read off a decreasing spectral symbol.

    Piecewise: 0 at alpha = 0; (lambda_fn^(-1)(alpha))^(-1/2) for
    alpha in (0, lambda_fn(t0)]; the plateau t0^(-1/2) above.  ``alpha``
    may be an array, which ``lambda_fn`` must then map elementwise.  The
    inversion brackets by doubling from t0 until the symbol falls below
    every alpha, then bisects all of them at once.
    """
    if t0 <= 0:
        raise DomainError("t0 must be positive")
    arr = np.asarray(alpha, dtype=float)
    if np.any(arr < 0):
        raise DomainError("alpha must be >= 0")
    top = float(lambda_fn(t0))
    out = np.where(arr > 0, t0**-0.5, 0.0)
    inside = (arr > 0) & (arr < top)
    if np.any(inside):
        lo, f_lo, hi = t0, top, 2.0 * t0
        while (f_hi := float(lambda_fn(hi))) > np.min(arr[inside]):
            if f_hi > f_lo:
                raise DomainError(
                    f"symbol not decreasing on the bracket: "
                    f"lambda({lo:g}) = {f_lo:.6g} < lambda({hi:g}) = {f_hi:.6g}"
                )
            lo, f_lo = hi, f_hi
            hi *= 2.0
            if hi > 1e300:
                raise DomainError("symbol does not fall below alpha")
        mu, _ = bracketed_roots(lambda_fn, arr, t0, hi, increasing=False)
        out = np.where(inside, mu**-0.5, out)
    return float(out) if arr.ndim == 0 else out


def _tabulated_kappa(lambda_fn, t0: float, alpha_min: float, size: int = 600):
    """Sampled inversion of a symbol, plateaued above lambda_fn(t0)."""
    top = float(lambda_fn(t0))
    alphas = np.geomspace(alpha_min, top, size)
    values = kappa_from_lambda(lambda_fn, t0, alphas)
    table = TabulatedIndex(np.column_stack([alphas, values]))
    return CappedIndex(table, cap_at=top)


@dataclasses.dataclass(frozen=True)
class ProblemDescriptor:
    """Named recipe for a benchmark fixture.

    ``kind`` selects the factory; ``params`` are its keyword arguments,
    finite numbers, and its size N or L a whole number.  Descriptors
    describe CI-scale fixtures, hence the minimum size.
    """

    kind: str
    params: dict

    _FACTORIES = {
        "single_layer_circle": single_layer_circle,
        "sobolev_scale": sobolev_scale,
        "backward_heat": backward_heat,
        "sideways_heat": sideways_heat,
        "gradiometry": gradiometry,
    }
    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in self._FACTORIES:
            raise DomainError(f"unknown problem kind: {self.kind!r}")
        names = inspect.signature(self._FACTORIES[self.kind]).parameters
        odd = sorted(set(self.params) ^ set(names))
        if odd:
            raise DomainError(f"params.{odd[0]}: {self.kind} takes {', '.join(names)}")
        for key, value in self.params.items():
            if key in ("N", "L"):
                whole(f"params.{key}", value, 8, COUNT_CEILING)
            else:
                number(f"params.{key}", value)

    def build(self) -> Fixture:
        return self._FACTORIES[self.kind](**self.params)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, d: dict) -> "ProblemDescriptor":
        params = section("problem.params", field(d, "problem.params"))
        return cls(kind=field(d, "problem.kind"), params=params)


def fixture_registry() -> dict[str, ProblemDescriptor]:
    """Canonical CI fixtures by name."""
    return {
        "circle-u1": ProblemDescriptor(
            "single_layer_circle", {"N": 2000, "u": 1.0}
        ),
        "circle-u05": ProblemDescriptor(
            "single_layer_circle", {"N": 2000, "u": 0.5}
        ),
        "sobolev-a1-u05": ProblemDescriptor(
            "sobolev_scale", {"N": 1000, "a": 1.0, "u": 0.5}
        ),
        "backward-heat-b1": ProblemDescriptor(
            "backward_heat", {"t_bar": 1.0, "N": 30, "beta": 1.0}
        ),
        "sideways-heat-b1": ProblemDescriptor(
            "sideways_heat", {"N": 64, "beta": 1.0}
        ),
        "gradiometry-r4": ProblemDescriptor(
            "gradiometry", {"R": 4.0, "L": 24, "beta": 1.0}
        ),
    }
