"""Exception hierarchy for finpop.

Everything raised on purpose derives from :class:`FinpopError` so callers can
catch library failures without swallowing programming errors.  A row-wise
evaluation (one row per sample or per leave-one-out sample) names its first
failing row, and ``row_runs`` walks such an evaluation past its failures.
"""


class FinpopError(Exception):
    """Base class for all finpop errors; ``row`` is the position of the first
    offending row of a row-wise evaluation."""

    row = 0

    def at_row(self, row: int) -> "FinpopError":
        self.row = row
        return self


def row_runs(evaluate, m: int):
    """Evaluate rows 0..m-1 of a row-wise computation, row failures included.

    ``evaluate(lo, hi)`` returns the values of rows lo..hi-1 or raises a
    :class:`FinpopError` whose ``row`` is its first failing row, counted from
    lo.  Yields ``(lo, values, None)`` for each run of rows that evaluate and
    ``(row, None, error)`` for each failing row, in row order, so that a
    caller may stop at the first failure.  The rows before a failing row are
    evaluated again, since one of them may fail a later check.
    """
    lo = 0
    while lo < m:
        hi, error = m, None
        while hi > lo:
            try:
                values = evaluate(lo, hi)
            except FinpopError as exc:
                hi, error = lo + exc.row, exc
            else:
                yield lo, values, None
                break
        if error is not None:
            yield hi, None, error
        lo = hi + 1


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
