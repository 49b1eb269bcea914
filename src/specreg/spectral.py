"""Diagonal (sequence-space) model of a compact self-adjoint problem.

A ``SpectralOperator`` stores the distinct eigenvalues of ``T*T`` in
descending order together with multiplicities; elements are coefficient
vectors over the unrolled eigenbasis slots.  Everything downstream
(filters, error formulas, parameter choice) works on these arrays.
"""

from __future__ import annotations

import dataclasses
from functools import cached_property

import numpy as np

from .errors import BasisMismatchError, DomainError
from .index_functions import IndexFunction

__all__ = [
    "SpectralOperator",
    "SpectralElement",
    "DeterministicNoise",
    "WhiteNoise",
    "spectral_distribution",
    "xtk_norm",
    "besov_seq_norm",
    "add_noise",
    "noise_generator",
]

# protocol entropy of the seeded deterministic data directions
_DET_DATA_ENTROPY = 7011


@dataclasses.dataclass(frozen=True)
class SpectralOperator:
    """Eigenvalues of T*T, descending and distinct, with multiplicities."""

    eigenvalues: np.ndarray
    multiplicities: np.ndarray
    truncation_note: str = ""

    def __post_init__(self):
        eig = np.asarray(self.eigenvalues, dtype=float)
        mult = np.asarray(self.multiplicities, dtype=np.int64)
        if eig.ndim != 1 or eig.size == 0:
            raise DomainError("eigenvalues must be a nonempty 1-d array")
        if mult.shape != eig.shape:
            raise DomainError("multiplicities must match eigenvalues in shape")
        if not np.all(np.isfinite(eig)):
            raise DomainError("eigenvalues must be finite")
        if np.any(eig <= 0):
            raise DomainError("eigenvalues must be strictly positive")
        if np.any(np.diff(eig) >= 0):
            raise DomainError("eigenvalues must be strictly decreasing; merge ties")
        if np.any(mult < 1):
            raise DomainError("multiplicities must be >= 1")
        eig = eig.copy()
        mult = mult.copy()
        eig.setflags(write=False)
        mult.setflags(write=False)
        object.__setattr__(self, "eigenvalues", eig)
        object.__setattr__(self, "multiplicities", mult)

    @classmethod
    def from_levels(cls, eigenvalues, multiplicities=None, truncation_note=""):
        """Build from possibly tied, possibly unsorted levels, merging ties."""
        eig = np.asarray(eigenvalues, dtype=float)
        mult = (
            np.ones(eig.shape, dtype=np.int64)
            if multiplicities is None
            else np.asarray(multiplicities, dtype=np.int64)
        )
        order = np.argsort(-eig, kind="stable")
        eig, mult = eig[order], mult[order]
        # first index of each run of equal values; an empty input stays
        # empty, for the constructor to reject
        starts = np.flatnonzero(np.r_[True, eig[1:] != eig[:-1]][: eig.size])
        return cls(eig[starts], np.add.reduceat(mult, starts), truncation_note)

    @cached_property
    def n_slots(self) -> int:
        return int(self.multiplicities.sum())

    @cached_property
    def slot_eigenvalues(self) -> np.ndarray:
        out = np.repeat(self.eigenvalues, self.multiplicities)
        out.setflags(write=False)
        return out

    @cached_property
    def slot_offsets(self) -> np.ndarray:
        """Start index of each level in the unrolled slot order."""
        out = np.concatenate([[0], np.cumsum(self.multiplicities)[:-1]])
        out.setflags(write=False)
        return out

    @cached_property
    def norm_tstar_t(self) -> float:
        return float(self.eigenvalues[0])

    @cached_property
    def norm_t(self) -> float:
        return float(np.sqrt(self.eigenvalues[0]))

    def level_sums(self, slot_values_sq: np.ndarray) -> np.ndarray:
        """Sum squared slot values within each eigenvalue level."""
        return np.add.reduceat(slot_values_sq, self.slot_offsets)

    def to_dict(self) -> dict:
        return {
            "eigenvalues": self.eigenvalues.tolist(),
            "multiplicities": self.multiplicities.tolist(),
            "truncation_note": self.truncation_note,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SpectralOperator":
        return cls(
            np.asarray(d["eigenvalues"], dtype=float),
            np.asarray(d["multiplicities"], dtype=np.int64),
            d.get("truncation_note", ""),
        )


@dataclasses.dataclass(frozen=True)
class SpectralElement:
    """Coefficient vector over the unrolled eigenbasis slots of ``op``."""

    op: SpectralOperator
    coefficients: np.ndarray

    def __post_init__(self):
        coef = np.asarray(self.coefficients, dtype=float)
        if coef.shape != (self.op.n_slots,):
            raise DomainError(
                f"expected {self.op.n_slots} coefficients, got {coef.shape}"
            )
        coef = coef.copy()
        coef.setflags(write=False)
        object.__setattr__(self, "coefficients", coef)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coefficients))

    @cached_property
    def level_mass(self) -> np.ndarray:
        """Squared norm of the coefficients on each eigenvalue level."""
        out = self.op.level_sums(self.coefficients**2)
        out.setflags(write=False)
        return out

    def with_coefficients(self, coef: np.ndarray) -> "SpectralElement":
        return SpectralElement(self.op, coef)

    def __add__(self, other: "SpectralElement") -> "SpectralElement":
        _require_same_operator(self.op, other.op)
        return SpectralElement(self.op, self.coefficients + other.coefficients)

    def __sub__(self, other: "SpectralElement") -> "SpectralElement":
        _require_same_operator(self.op, other.op)
        return SpectralElement(self.op, self.coefficients - other.coefficients)

    def __mul__(self, c: float) -> "SpectralElement":
        return SpectralElement(self.op, self.coefficients * float(c))

    __rmul__ = __mul__

    def to_dict(self) -> dict:
        return {"coefficients": self.coefficients.tolist()}


def _require_same_operator(a: SpectralOperator, b: SpectralOperator) -> None:
    if a is b:
        return
    same = np.array_equal(a.eigenvalues, b.eigenvalues) and np.array_equal(
        a.multiplicities, b.multiplicities
    )
    if not same:
        raise BasisMismatchError("elements live over different operators")


def spectral_distribution(x: SpectralElement, lam) -> np.ndarray | float:
    """||E_lam x||: norm of the projection onto eigenspaces with
    eigenvalue <= lam (right-continuous in lam)."""
    lam_arr = np.asarray(lam, dtype=float)
    scalar = lam_arr.ndim == 0
    lam_arr = np.atleast_1d(lam_arr)
    asc = x.op.slot_eigenvalues[::-1]
    csum = np.cumsum(x.coefficients[::-1] ** 2)
    counts = np.searchsorted(asc, lam_arr, side="right")
    out = np.where(counts > 0, np.sqrt(csum[np.maximum(counts, 1) - 1]), 0.0)
    return float(out[0]) if scalar else out


def xtk_norm(x: SpectralElement, kappa: IndexFunction) -> float:
    """sup over lam of ||E_lam x|| / kappa(lam), attained on the eigenvalues.

    Requires kappa to be defined on [lambda_N, lambda_1].  Returns ``inf``
    when kappa vanishes at the bottom eigenvalue while mass remains there.
    """
    eig = x.op.eigenvalues
    tail = np.sqrt(np.cumsum(x.level_mass[::-1]))[::-1]  # ||E_{lam_j} x||
    kap = np.asarray(kappa(eig))
    if np.any((kap == 0) & (tail > 0)):
        return float("inf")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(tail > 0, tail / np.where(kap > 0, kap, 1.0), 0.0)
    return float(np.max(ratios))


def besov_seq_norm(frequencies, coefficients, u: float) -> float:
    """sup_m (1 v m)^(2u) * sum_{|n| >= m} c_n^2, square-rooted.

    ``frequencies`` are integer labels (e.g. Fourier indices) parallel to
    ``coefficients``; the tail at cutoff m collects all |n| >= m.
    """
    freq = np.abs(np.asarray(frequencies, dtype=np.int64))
    coef = np.asarray(coefficients, dtype=float)
    if freq.shape != coef.shape:
        raise ValueError("frequencies and coefficients must align")
    if u < 0:
        raise ValueError("u must be >= 0")
    m_top = int(freq.max()) if freq.size else 0
    mass_per_level = np.bincount(freq, weights=coef**2, minlength=m_top + 1)
    tails = np.cumsum(mass_per_level[::-1])[::-1]  # tails[m] = sum_{|n|>=m}
    weights = np.maximum(1, np.arange(m_top + 1)) ** (2.0 * u)
    return float(np.sqrt(np.max(weights * tails)))


@dataclasses.dataclass(frozen=True)
class DeterministicNoise:
    """Norm-bounded perturbation model: any xi with ||xi|| <= delta."""

    delta: float

    def __post_init__(self):
        if self.delta < 0:
            raise DomainError("delta must be >= 0")

    def to_dict(self):
        return {"kind": "deterministic", "delta": self.delta}


@dataclasses.dataclass(frozen=True)
class WhiteNoise:
    """Gaussian white noise: eps * W with iid standard normal slots."""

    epsilon: float
    seed: int = 0

    def __post_init__(self):
        if self.epsilon < 0:
            raise DomainError("epsilon must be >= 0")

    def to_dict(self):
        return {"kind": "white", "epsilon": self.epsilon, "seed": self.seed}


def noise_generator(noise: WhiteNoise, replicate: int) -> np.random.Generator:
    """Reproducible per-replicate generator keyed by (seed, replicate)."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=noise.seed, spawn_key=(replicate,))
    )


def add_noise(
    g: SpectralElement,
    noise,
    xi: "SpectralElement | np.ndarray | None" = None,
    replicate: int = 0,
) -> SpectralElement:
    """Perturb data ``g`` according to the noise model.

    Deterministic: adds a supplied ``xi`` (an element over the same basis,
    or a raw coefficient array) after checking ||xi|| <= delta; without
    one, adds a reproducible direction on the delta sphere keyed by
    ``replicate`` (the worst case is analysed downstream), and delta = 0
    gives back ``g``.  White: adds eps * W with W drawn reproducibly from
    (seed, replicate).
    """
    if isinstance(noise, DeterministicNoise):
        if xi is None:
            if noise.delta == 0:
                return g.with_coefficients(g.coefficients.copy())
            seq = np.random.SeedSequence(_DET_DATA_ENTROPY, spawn_key=(replicate,))
            xi = np.random.default_rng(seq).standard_normal(g.op.n_slots)
            xi *= noise.delta / float(np.linalg.norm(xi))
            return g.with_coefficients(g.coefficients + xi)
        if isinstance(xi, SpectralElement):
            _require_same_operator(g.op, xi.op)
            xi = xi.coefficients
        xi = np.asarray(xi, dtype=float)
        if xi.shape != g.coefficients.shape:
            raise ValueError("xi must match the coefficient shape")
        if float(np.linalg.norm(xi)) > noise.delta * (1 + 1e-12):
            raise DomainError("||xi|| exceeds the stated delta")
        return g.with_coefficients(g.coefficients + xi)
    if isinstance(noise, WhiteNoise):
        if xi is not None:
            raise ValueError("xi only applies to deterministic noise")
        w = noise_generator(noise, replicate).standard_normal(g.op.n_slots)
        return g.with_coefficients(g.coefficients + noise.epsilon * w)
    raise TypeError(f"unsupported noise model: {noise!r}")
