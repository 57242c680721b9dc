"""Exception types shared across the package."""


class RisPilotError(Exception):
    """Base class for every error raised by this package."""


class AngleDomainError(RisPilotError, ValueError):
    """An angle lies outside the front half-plane [-pi/2, pi/2]."""


class DimensionError(RisPilotError, ValueError):
    """Vector or matrix dimensions do not match."""


class DegenerateDirectionError(RisPilotError, ArithmeticError):
    """The probed signal direction carries no energy (zero denominator)."""


class SingularChannelError(RisPilotError, ValueError):
    """A BS-RIS channel coefficient is zero, so its diagonal is not invertible."""


class PoolExhaustedError(RisPilotError, RuntimeError):
    """A pilot budget exceeds the N candidate configurations, one per pilot."""


class InsufficientPilotsError(RisPilotError, ValueError):
    """The pilot budget is too small for the adaptive estimation loop."""


class ConfigParseError(RisPilotError, ValueError):
    """A configuration file or override could not be parsed."""


class ConfigValidationError(RisPilotError, ValueError):
    """A configuration value violates a field constraint."""
