"""Exception hierarchy for finpop.

Everything raised on purpose derives from :class:`FinpopError` so callers can
catch library failures without swallowing programming errors.  A row-wise
evaluation (one row per sample or per leave-one-out sample) names all of its
failing rows, and ``rows_that_evaluate`` walks such an evaluation past them,
in passes of a bounded number of entries.
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
    """Base class for all finpop errors; ``rows`` are the positions of the
    offending rows of a row-wise evaluation, and ``row`` is the first.  An
    error raised for the whole call names no rows: ``rows`` is None."""

    row, rows = 0, None

    def at_rows(self, mask: np.ndarray) -> "FinpopError":
        self.rows = np.flatnonzero(mask)
        self.row = int(self.rows[0])
        return self


def rows_that_evaluate(evaluate, m: int, width: int = 1):
    """Evaluate rows 0..m-1 of a row-wise computation, leaving out the rows
    that fail.

    ``evaluate(rows)`` returns the values of the rows that ``rows`` selects
    or raises a :class:`FinpopError` whose ``rows`` are its failing rows,
    counted within the selection; an error that names no rows stops the walk
    and propagates.  A pass covers at most
    ``max(1, _PASS_ENTRIES // width)`` rows of ``width`` entries, whatever m
    is; its first call gets a slice, and after a failure the rest of the
    pass is evaluated again as an index array, since one of its rows may
    fail a later check.  Returns ``(kept, values, failure)``: the positions
    of the rows that evaluate, their values, and ``(row, error)`` for the
    lowest failing row, or None; the error carries no traceback, whose frames
    would hold their arrays while later rows run.
    """
    kept, values, failure, step = [], [], None, max(1, _PASS_ENTRIES // width)
    for lo in range(0, m, step):
        rows = np.arange(lo, min(m, lo + step))
        select = slice(lo, lo + rows.size)
        while rows.size:
            try:
                values.append(evaluate(select))
            except FinpopError as exc:
                if exc.rows is None:  # the call failed as a whole: no row to leave out
                    raise
                if failure is None or rows[exc.row] < failure[0]:
                    failure = (int(rows[exc.row]), exc.with_traceback(None))
                rows = select = np.delete(rows, exc.rows)
            else:
                kept.append(rows)
                break
    if len(values) == 1:  # one run of rows: its values need no copy
        return kept[0], values[0], failure
    kept, values = [np.empty(0, dtype=int), *kept], [np.empty(0), *values]
    return np.concatenate(kept), np.concatenate(values), failure


class ParameterError(FinpopError, ValueError):
    """A model, design or configuration parameter is invalid."""


class IngestionError(FinpopError, ValueError):
    """A CSV file could not be turned into a population."""


class CombinationError(ParameterError):
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
