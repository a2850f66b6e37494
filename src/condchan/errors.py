"""Exception types shared across the package.

One class per kind of failure: a command line (``UsageError``), a document
(``DocumentSyntaxError``), shapes that do not fit (``ShapeMismatch``),
supports that do not nest (``SupportMismatch``), a measured invariant
(``InvariantViolation``, which names it; both carry a deviation) and the
eigensolver (``NoConvergence``).
"""

from __future__ import annotations


class CondChanError(Exception):
    """Base class for every error this package raises deliberately.

    ``exit_code`` is the CLI exit status the error maps to: 3 (invariant
    violation) unless a subclass says otherwise.
    """

    exit_code = 3


class ShapeMismatch(CondChanError):
    """Algebra shapes, matrix dimensions or indices do not fit the operation."""


class NoConvergence(CondChanError):
    """The iterative eigensolver failed to converge."""

    exit_code = 4


class SupportMismatch(CondChanError):
    """A support does not lie inside the one it must (a marginal outside its
    conditional's conditioning support, or an ensemble member outside the
    support of the decomposed state), by a measured ``deviation``."""

    def __init__(self, message: str, deviation: float):
        self.deviation = float(deviation)
        super().__init__(message)


class InvariantViolation(CondChanError):
    """A matrix or object failed a measured invariant.

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
