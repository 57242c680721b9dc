"""Exception types shared across the package, in two families.

``InvalidInputError`` (also a ``ValueError``) rejects an input that breaks
a rule of its owner; any other ``RisPilotError`` is a runtime failure.
"""


class RisPilotError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(RisPilotError, ValueError):
    """An input breaks a rule of the function or class that owns it."""


class AngleDomainError(InvalidInputError):
    """An angle lies outside the front half-plane [-pi/2, pi/2]."""


class DimensionError(InvalidInputError):
    """Vector or matrix dimensions do not match."""


class DegenerateDirectionError(RisPilotError, ArithmeticError):
    """The probed signal direction carries no energy (zero denominator)."""


class SingularChannelError(InvalidInputError):
    """A BS-RIS channel coefficient is zero, so its diagonal is not invertible."""


class PoolExhaustedError(InvalidInputError, RuntimeError):
    """A pilot budget exceeds the N candidate configurations, one per pilot."""


class InsufficientPilotsError(InvalidInputError):
    """The pilot budget is too small for the adaptive estimation loop."""


class ConfigParseError(InvalidInputError):
    """A configuration file or override could not be parsed."""


class ConfigValidationError(InvalidInputError):
    """A configuration value violates a field constraint."""
