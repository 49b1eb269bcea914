"""Exception types shared across the package, and the readers that refuse
a config value with a :class:`DomainError` naming its field."""

import numbers
import sys

# Largest size or count a config may ask for: slot counts N and L, Monte
# Carlo replicates and falsification probes.
COUNT_CEILING = 10**7


class DomainError(ValueError):
    """An argument lies outside the certified domain of a function."""


class OutOfRangeError(ValueError):
    """An inversion target lies outside the attainable range."""


class BasisMismatchError(ValueError):
    """Two sequence-space objects refer to different operators."""


def section(path: str, value) -> dict:
    """A copy of a config section, which must be a JSON object."""
    if not isinstance(value, dict):
        raise DomainError(f"{path} must be a JSON object, got {type(value).__name__}")
    return dict(value)


def field(d: dict, path: str):
    """The required entry of ``d`` named by the last part of ``path``."""
    key = path.rpartition(".")[2]
    if key not in d:
        raise DomainError(f"{path} is required")
    return d[key]


def number(path: str, value, above: float | None = None) -> float:
    """A finite number, as a float, optionally strictly above a bound;
    bools and strings are refused rather than read as numbers."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not abs(value) <= sys.float_info.max
    ):
        raise DomainError(f"{path} must be a finite number, got {value!r}")
    if above is not None and not value > above:
        raise DomainError(f"{path} must be > {above:g}, got {value!r}")
    return float(value)


def whole(path: str, value, minimum: int = 0, maximum: int | None = None) -> int:
    """A whole number in [minimum, maximum]; bools, strings, fractions and
    integers beyond the double range are refused rather than rounded."""
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Integral)
        or (isinstance(value, float) and value.is_integer())
    ):
        raise DomainError(f"{path} must be a whole number, got {value!r}")
    if not abs(value) <= sys.float_info.max:
        raise DomainError(f"{path} must lie within the double range")
    if value < minimum:
        raise DomainError(f"{path} must be >= {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        raise DomainError(f"{path} must be <= {maximum}, got {value!r}")
    return int(value)
