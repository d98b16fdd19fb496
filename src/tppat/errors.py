"""Exception types shared across the package, and the count check they share."""

import numbers


class TppatError(Exception):
    """Base class for all package errors."""


class ValidationError(TppatError):
    """Invalid user input: bad config values, dimension mismatches, bad arguments."""


class MeshFormatError(ValidationError):
    """Malformed mesh or field file. Carries the offending line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def require_count(value, name: str) -> None:
    """Raise ValidationError unless value is an integer >= 1 (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValidationError(f"{name} must be an integer >= 1, got {value!r}")


class SolverError(TppatError):
    """A linear or nonlinear solve failed to converge. Carries diagnostics."""

    def __init__(self, message, residual=None, report=None):
        super().__init__(message)
        self.residual = residual
        self.report = report
