"""Exception types shared across the package."""

from __future__ import annotations


class CondChanError(Exception):
    """Base class for every error this package raises deliberately.

    ``exit_code`` is the CLI exit status the error maps to: 3 (invariant
    violation) unless a subclass says otherwise.
    """

    exit_code = 3


class DimensionMismatch(CondChanError):
    """Matrix dimensions are incompatible with the requested operation."""


class ShapeMismatch(CondChanError):
    """Algebra shapes of the operands do not match."""


class NotHermitian(CondChanError):
    """Input matrix deviates from Hermiticity beyond tolerance."""


class NotPositive(CondChanError):
    """Input matrix has an eigenvalue below the negativity tolerance."""


class NoConvergence(CondChanError):
    """The iterative eigensolver failed to converge."""

    exit_code = 4


class SupportMismatch(CondChanError):
    """Support conditions between marginal and conditional are violated."""


class NotTracePreserving(CondChanError):
    """The conditioning partial trace is not a projector/identity within tolerance."""


class BasisNotPOVM(CondChanError):
    """The supplied measurement basis is not a valid POVM for the protocol."""


class SupportViolation(CondChanError):
    """An ensemble member leaks outside the support of the decomposed state."""


class InvariantViolation(CondChanError):
    """A validated object failed one of its construction invariants.

    Carries the name of the failing invariant and the measured deviation so
    reports and the CLI can surface both.
    """

    def __init__(self, invariant: str, deviation: float, message: str | None = None):
        self.invariant = invariant
        self.deviation = float(deviation)
        if message is None:
            message = f"invariant {invariant!r} violated (deviation {deviation:.3e})"
        super().__init__(message)


class DocumentSyntaxError(CondChanError):
    """A document could not be parsed; carries line/column when known."""

    exit_code = 2

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = int(line)
        self.column = int(column)
        super().__init__(f"{message} (line {line}, column {column})" if line > 0 else message)


class UsageError(CondChanError):
    """Bad command-line usage."""

    exit_code = 1
