"""Exception hierarchy for finpop.

Everything raised on purpose derives from :class:`FinpopError` so callers can
catch library failures without swallowing programming errors.  A row-wise
evaluation (one row per sample or per leave-one-out sample) names its first
failing row, and ``rows_that_evaluate`` walks such an evaluation past its
failures, in passes of a bounded number of entries.
"""

import numpy as np

__all__ = [
    "FinpopError",
    "ParameterError",
    "IngestionError",
    "CombinationError",
    "UnsupportedQueryError",
    "InfeasibleError",
    "EnumerationTooLargeError",
    "DegenerateError",
    "ConvergenceError",
    "UndefinedParameterError",
    "JackknifeFailureError",
]
_PASS_ENTRIES = 2**14  # the most entries, rows times their width, one pass is given


class FinpopError(Exception):
    """Base class for all finpop errors; ``row`` is the position of the first
    offending row of a row-wise evaluation."""

    row = 0

    def at_row(self, row: int) -> "FinpopError":
        self.row = row
        return self


def rows_that_evaluate(evaluate, m: int, width: int = 1, *, stop_at_failure=False):
    """Evaluate rows 0..m-1 of a row-wise computation, leaving out the rows
    that fail.

    ``evaluate(lo, hi)`` returns the values of rows lo..hi-1 or raises a
    :class:`FinpopError` whose ``row`` is its first failing row, counted from
    lo; the rows before a failing row are evaluated again, since one of them
    may fail a later check.  A call is given at most
    ``max(1, _PASS_ENTRIES // width)`` rows of ``width`` entries, whatever m
    is.  Returns ``(kept, values, failure)``: the positions of the rows that
    evaluate, their values, and ``(row, error)`` for the first failing row, or
    None.  With ``stop_at_failure`` nothing after the first failing row is
    evaluated; otherwise its error carries no traceback, whose frames would
    hold their arrays while later rows run.
    """
    kept, values, failure, lo = [], [], None, 0
    while lo < m and not (failure and stop_at_failure):
        hi, error = min(m, lo + max(1, _PASS_ENTRIES // width)), None
        while hi > lo:
            try:
                values.append(evaluate(lo, hi))
            except FinpopError as exc:
                hi, error = lo + exc.row, exc
            else:
                kept.append(np.arange(lo, hi))
                break
        if error is not None and failure is None:
            failure = (hi, error if stop_at_failure else error.with_traceback(None))
        lo = hi + (error is not None)  # a failing row is left out
    if len(values) == 1:  # one run of rows: its values need no copy
        return kept[0], values[0], failure
    kept, values = [np.empty(0, dtype=int), *kept], [np.empty(0), *values]
    return np.concatenate(kept), np.concatenate(values), failure


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
