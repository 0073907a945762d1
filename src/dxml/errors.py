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


class DegenerateTargetError(ValidationError):
    """An averaged label embedding collapsed to near-zero norm."""


class ModelFileError(DxmlError):
    """A model file is corrupt, truncated, or has an unsupported version."""
