"""Exception types shared across the toolkit.

Everything raised on purpose derives from GridestError so CLI entry points
can map tool failures to exit codes without catching bare Exception.
"""

from __future__ import annotations


class GridestError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(GridestError):
    """An input document could not be read.

    Carries a human-readable location (line/column when the underlying
    reader provides one).
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            where = f"line {line}" + (f", column {column}" if column is not None else "")
            message = f"{message} ({where})"
        super().__init__(message)


class ValidationError(GridestError):
    """A parsed document or in-memory object violates a model invariant."""


class DuplicateLine(ValidationError):
    """The same unordered bus pair appears twice in a line list."""


class UnknownBusReference(ValidationError):
    """A line or assignment references a bus id that does not exist."""


class ZeroVoltage(GridestError):
    """A measurement function was evaluated at a non-positive voltage magnitude.

    columns lists the state entries it rejected (grid.line_flows names
    every v_k <= 0 of its state vector); it is empty when the raise names
    none.
    """

    def __init__(self, message: str, columns=()):
        self.columns = columns
        super().__init__(message)


class DimensionMismatch(GridestError):
    """Matrix or vector shapes do not line up."""


class SingularMatrix(GridestError):
    """A pivot fell below the singularity threshold during factorization."""


class SingularKkt(SingularMatrix):
    """A KKT system stayed singular even after the ridge fallback."""


class SingularBordered(SingularMatrix):
    """The bordered information matrix of the posterior analysis is singular."""


class SingularJacobian(GridestError):
    """The power flow Jacobian lost rank."""


class Diverged(GridestError):
    """An iteration left its convergence basin or ran out of iterations."""


class InnerDiverged(Diverged):
    """A local solve could not make progress in its line search."""


class EmptyRegion(ValidationError):
    """A partition assigns no bus to one of its regions."""


class UnassignedBus(ValidationError):
    """A partition leaves at least one bus without a region."""
