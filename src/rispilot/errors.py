"""Exception types shared across the package, in two families.

``InvalidInputError`` (also a ``ValueError``) rejects an input that breaks
a rule of its owner; its message, not a subclass, names the rule. The
other ``RisPilotError``, ``DegenerateDirectionError``, is a runtime failure.
"""


class RisPilotError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(RisPilotError, ValueError):
    """An input breaks a rule of the function or class that owns it."""


class DegenerateDirectionError(RisPilotError, ArithmeticError):
    """The probed signal direction carries no energy (zero denominator)."""
