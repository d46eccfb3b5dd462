"""Exception hierarchy.

Two families matter to callers: :class:`ValidationError` for bad inputs
(the CLI maps these to exit code 2) and :class:`NumericalError` for
computations that cannot produce a valid result (exit code 3).
"""

from __future__ import annotations


class SulfexpError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(SulfexpError):
    """Input fails a precondition (shape, range, parse, missing field)."""


class NumericalError(SulfexpError):
    """Computation cannot produce a result meeting its contract."""


# --- validation ---------------------------------------------------------


class DimensionMismatch(ValidationError):
    pass


class NonFiniteValue(ValidationError):
    pass


class AsymmetricMatrix(ValidationError):
    pass


class TooFewSamples(ValidationError):
    pass


class InvalidAlpha(ValidationError):
    pass


class TooFewPoints(ValidationError):
    pass


class TooFewRows(ValidationError):
    pass


class SingleClass(ValidationError):
    pass


class MissingField(ValidationError):
    pass


class NegativeTime(ValidationError):
    pass


class EmptyGroup(ValidationError):
    pass


class ParseError(ValidationError):
    """Tabular input could not be parsed; carries file location context."""

    def __init__(self, message: str, path: str | None = None,
                 line: int | None = None, field: str | None = None):
        self.path = path
        self.line = line
        self.field = field
        loc = "".join(
            f", {k}={v}" for k, v in
            (("file", path), ("line", line), ("field", field)) if v is not None
        )
        super().__init__(message + loc)


class RangeViolation(ParseError):
    pass


class DuplicateId(ParseError):
    pass


class DuplicateTimestamp(ParseError):
    pass


class SchemaVersionMismatch(ValidationError):
    pass


# --- numerical ----------------------------------------------------------


class SingularMatrix(NumericalError):
    pass


class NoConvergence(NumericalError):
    """Iteration budget exhausted; carries the last iterate as diagnostics."""

    def __init__(self, message: str, **diagnostics):
        self.diagnostics = diagnostics
        if diagnostics:
            message += " (" + ", ".join(f"{k}={v}" for k, v in diagnostics.items()) + ")"
        super().__init__(message)


class OneSidedBoundary(NumericalError):
    """A trained boundary's optimum puts every training point on one side."""


class RankDeficient(NumericalError):
    pass


class ConstantResponse(NumericalError):
    pass


class NonPositiveTrend(NumericalError):
    pass


class NonIncreasing(NumericalError):
    pass


class AlreadyFailed(NumericalError):
    pass


class PredictionOverflow(NumericalError):
    """A prediction is too large to represent as a float."""
