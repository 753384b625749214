"""Exception hierarchy for finpop.

Everything raised on purpose derives from :class:`FinpopError` so callers can
catch library failures without swallowing programming errors.
"""


class FinpopError(Exception):
    """Base class for all finpop errors; ``row`` is the position of the first
    offending row of a row-wise evaluation (one row per leave-one-out sample)."""

    row = 0

    def at_row(self, row: int) -> "FinpopError":
        self.row = row
        return self


class ParameterError(FinpopError, ValueError):
    """A model, design or configuration parameter is invalid."""


class IngestionError(FinpopError, ValueError):
    """A CSV file could not be turned into a population."""


class CombinationError(FinpopError, ValueError):
    """The requested (estimator, design) pair is not valid."""


class UnsupportedQueryError(FinpopError):
    """The quantity asked for is not defined for this design."""


class InfeasibleError(FinpopError):
    """No solution exists under the stated constraints."""


class EnumerationTooLargeError(FinpopError):
    """Exact enumeration would exceed the outcome cap."""


class DrawFailureError(FinpopError):
    """A rejective sampling scheme exhausted its retry budget."""


class DegenerateError(FinpopError):
    """A denominator or spread term collapsed to zero."""


class ConvergenceError(FinpopError):
    """An iterative solver hit its iteration cap without converging."""


class UndefinedParameterError(FinpopError):
    """The target parameter is undefined at the supplied moments."""


class JackknifeFailureError(FinpopError):
    """A leave-one-out estimate could not be computed.

    The offending unit index is stored in ``unit``.
    """

    def __init__(self, message: str, unit: int):
        super().__init__(message)
        self.unit = unit
