"""Exception types shared across the package, and the bound check that the
library dataclasses share.

The CLI maps these onto process exit codes: configuration problems exit
with 2, infeasible requests with 3, and I/O failures (plain OSError)
with 4.
"""


class UewpiotError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(UewpiotError, ValueError):
    """A parameter, config key, or value is invalid or unknown. ``field``, when
    set, is the dataclass field or argument at fault; the message names it."""

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


class GeometryError(UewpiotError, ValueError):
    """A link geometry is unphysical (e.g. slant range below hover height)."""


class InfeasibilityError(UewpiotError, RuntimeError):
    """A request cannot be satisfied (coverage, latency, or link limits)."""


class CapabilityError(UewpiotError, ValueError):
    """A solver was asked for more than it supports (e.g. exact tour size)."""
