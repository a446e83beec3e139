"""Exception types raised by the engine.

Every failure mode callers are expected to distinguish gets its own class;
all inherit from EngineError so `except EngineError` catches the lot.
"""


class EngineError(Exception):
    """Base class for all engine errors."""


class ValidationError(EngineError, ValueError):
    """A parameter or input value is outside its documented domain."""


class StabilityError(ValidationError):
    """Relaxation time tau outside the stable domain tau > 1/2."""


class ShapeMismatchError(ValidationError):
    """Array arguments whose shapes must agree do not."""


class NonFiniteFieldError(ValidationError):
    """A field contains NaN or Inf where finite values are required."""


class DegenerateDomainError(ValidationError):
    """Grid too small to hold an interior (smaller than 3x3)."""


class ScheduleError(ValidationError):
    """Corruption levels decrease, or their plan is too long to hold."""


class FitError(EngineError):
    """Regression fit could not be performed (too few usable points)."""


class FormatError(EngineError):
    """A file does not conform to its format.

    `offset` is the byte position where parsing failed, when known.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte {offset})"
        super().__init__(message)
        self.offset = offset


class PredictorTimeoutError(EngineError):
    """An external predictor did not answer within the allotted time."""
