"""Exception types shared across the package."""

from __future__ import annotations


class DxmlError(Exception):
    """Base class for every error raised by this package."""


class DataFormatError(DxmlError):
    """A text artifact does not conform to its declared format.

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(DxmlError):
    """An input violates a documented precondition."""


class PointError(ValidationError):
    """One point of an input violates a precondition; ``point`` is its row there."""

    def __init__(self, point: int, reason: str):
        super().__init__(f"point {point}: {reason}")
        self.point = point
        self.reason = reason

    def renumbered(self, rows) -> "PointError":
        """The same error for an input whose row ``rows[i]`` is this input's row ``i``."""
        return PointError(int(rows[self.point]), self.reason)


class DegenerateTargetError(ValidationError):
    """An averaged label embedding collapsed to near-zero norm."""


class ModelFileError(DxmlError):
    """A model file is corrupt, truncated, or has an unsupported version."""
