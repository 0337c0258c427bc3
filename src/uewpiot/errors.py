"""The package's two error types, and the one home of its sign, finiteness and integer rules.

The library raises ``ConfigurationError`` (CLI exit code 2) for a bad value, an
unphysical geometry or a request past a solver's limit, and ``InfeasibilityError``
(exit 3) for a request that no plan can meet. I/O failures (plain OSError) exit 4.
Every entry point checks its scalars here, so each refuses NaN, +inf and ``bool`` alike.
"""
import math
import operator


class UewpiotError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(UewpiotError, ValueError):
    """A key, value or geometry is invalid, unknown or past a solver's limit. ``field``,
    when set, is the dataclass field or argument at fault; the message names it."""

    def __init__(self, message: str, field: str | None = None) -> None:
        super().__init__(message)
        self.field = field


def check_values(rule: str, /, **values) -> None:
    """Raise naming the first of ``values`` to break ``rule``, "> 0", ">= 0" or "finite";
    NaN and +inf break all three."""
    for name, value in values.items():
        ok = value > 0 if rule == "> 0" else value >= 0 if rule == ">= 0" else math.isfinite(value)
        if not ok or value == math.inf:
            broken = rule if not ok else "finite"
            raise ConfigurationError(f"{name} must be {broken}, got {value:g}", name)


def check_fields(obj, rule: str, *names: str) -> None:
    """``check_values`` over the attributes ``names`` of ``obj``."""
    check_values(rule, **{name: getattr(obj, name) for name in names})


def is_integer(value) -> bool:
    """An int or numpy integer, as ``operator.index`` reads it; no bool, float or str."""
    return type(value) is not bool and hasattr(type(value), "__index__")  # bool has no subclass


def check_integer(name: str, value, low: int) -> int:
    """``value`` as an int; raise naming ``name`` unless it ``is_integer`` and is >= ``low``."""
    if not (is_integer(value) and operator.index(value) >= low):
        raise ConfigurationError(f"{name} must be an integer >= {low}, got {value!r}", name)
    return operator.index(value)


class InfeasibilityError(UewpiotError, RuntimeError):
    """A request cannot be satisfied (coverage, latency, or link limits)."""
