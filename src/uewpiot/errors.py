"""The package's two error types, and the bound and integer checks the library shares.

The library raises ``ConfigurationError`` (CLI exit code 2) for a bad value, an
unphysical geometry or a request past a solver's limit, and ``InfeasibilityError``
(exit 3) for a request that no plan can meet. I/O failures (plain OSError) exit 4.
"""
import operator


class UewpiotError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(UewpiotError, ValueError):
    """A key, value or geometry is invalid, unknown or past a solver's limit. ``field``,
    when set, is the dataclass field or argument at fault; the message names it."""

    def __init__(self, message: str, field: str | None = None) -> None:
        super().__init__(message)
        self.field = field


def check_fields(obj, rule: str, *names: str) -> None:
    """Raise naming the first of ``names`` whose value on ``obj`` breaks ``rule``,
    "> 0" or ">= 0"; NaN breaks both."""
    for name in names:
        value = getattr(obj, name)
        if not (value > 0 or rule == ">= 0" and value == 0):
            raise ConfigurationError(f"{name} must be {rule}, got {value:g}", name)


def check_integer(name: str, value, low: int) -> int:
    """``value`` as ``operator.index`` reads it, which takes ints and numpy integers but
    no float or str; raise naming ``name`` unless it is one, and at least ``low``."""
    if not (hasattr(type(value), "__index__") and operator.index(value) >= low):
        raise ConfigurationError(f"{name} must be an integer >= {low}, got {value!r}", name)
    return operator.index(value)


class InfeasibilityError(UewpiotError, RuntimeError):
    """A request cannot be satisfied (coverage, latency, or link limits)."""
