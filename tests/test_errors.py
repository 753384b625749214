import numpy as np
import pytest

from finpop.errors import (
    _PASS_ENTRIES,
    CombinationError,
    DegenerateError,
    FinpopError,
    ParameterError,
    rows_that_evaluate,
)


def checked(checks, m, names_all=True):
    """A row-wise evaluation of rows 0..m-1 that applies ``checks`` in order,
    each a set of failing rows that it names all at once, or only the first
    of them; it records the selection it is called with."""
    calls = []

    def evaluate(rows):
        calls.append(rows)
        positions = np.arange(m)[rows]
        for name, bad in enumerate(checks):
            failing = np.isin(positions, list(bad))
            if failing.any():
                if not names_all:
                    failing[failing.argmax() + 1:] = False
                raise DegenerateError(f"check {name}").at_rows(failing)
        return positions * 10.0

    return evaluate, calls


def test_an_error_names_every_failing_row_and_its_first():
    error = FinpopError("x").at_rows(np.array([False, True, False, True]))
    np.testing.assert_array_equal(error.rows, [1, 3])
    assert error.row == 1
    assert FinpopError("unnamed").row == 0


def test_keeps_the_rows_that_evaluate_and_names_the_first_failure():
    evaluate, _ = checked([{2, 5, 6}], 9)
    kept, values, failure = rows_that_evaluate(evaluate, 9)
    np.testing.assert_array_equal(kept, [0, 1, 3, 4, 7, 8])
    np.testing.assert_array_equal(values, kept * 10.0)
    row, error = failure
    assert row == 2 and str(error) == "check 0"
    # evaluation went on past it, so it keeps no frames alive
    assert error.__traceback__ is None


def test_without_failures_one_call_covers_every_row():
    # a clean pass copies nothing: it is called with a slice
    evaluate, calls = checked([], 4)
    kept, values, failure = rows_that_evaluate(evaluate, 4)
    assert calls == [slice(0, 4)] and failure is None
    np.testing.assert_array_equal(kept, [0, 1, 2, 3])
    np.testing.assert_array_equal(values, [0.0, 10.0, 20.0, 30.0])


def test_rows_failing_one_check_cost_one_extra_call_per_pass():
    step = _PASS_ENTRIES // 16  # the rows of a pass at width 16
    m = 5 * step - 3
    bad = set(range(3, m, 7))
    evaluate, calls = checked([bad], m)
    kept, _, failure = rows_that_evaluate(evaluate, m, 16)
    assert len(calls) == 2 * 5
    # each pass is called with a slice, then once with the rest of it
    assert calls[0::2] == [slice(lo, min(m, lo + step)) for lo in range(0, m, step)]
    np.testing.assert_array_equal(calls[1], [r for r in range(step) if r not in bad])
    np.testing.assert_array_equal(kept, [r for r in range(m) if r not in bad])
    assert failure[0] == 3


def test_a_row_failing_a_later_check_is_found_on_the_retry():
    # row 1 passes check 0 and fails check 1, which runs only once rows
    # 4 and 6 are gone; it is still the lowest failing row reported
    evaluate, calls = checked([{4, 6}, {1, 8}], 9)
    kept, values, failure = rows_that_evaluate(evaluate, 9)
    assert len(calls) == 3
    np.testing.assert_array_equal(calls[1], [0, 1, 2, 3, 5, 7, 8])
    np.testing.assert_array_equal(calls[2], [0, 2, 3, 5, 7])
    np.testing.assert_array_equal(kept, [0, 2, 3, 5, 7])
    np.testing.assert_array_equal(values, kept * 10.0)
    row, error = failure
    assert row == 1 and str(error) == "check 1"


def test_an_error_naming_no_rows_stops_the_walk():
    # no row is at fault, so leaving rows out cannot help: one call, and the
    # error propagates
    calls = []

    def evaluate(rows):
        calls.append(rows)
        raise DegenerateError("whole call")

    with pytest.raises(DegenerateError, match="whole call") as err:
        rows_that_evaluate(evaluate, 9)
    assert err.value.rows is None and len(calls) == 1


def test_no_rows():
    evaluate, calls = checked([], 0)
    kept, values, failure = rows_that_evaluate(evaluate, 0)
    assert kept.size == values.size == 0 and failure is None and not calls


@pytest.mark.parametrize("names_all", [False, True])
@pytest.mark.parametrize(
    "bad,m",
    [([{2, 5, 6}], 9), ([], 4), ([{2, 5}], 9), ([{0, 1, 8}], 9), ([], 0),
     ([{6}, {0, 1}, {3}], 9), ([set(range(9))], 9)],
)
def test_bounded_passes_walk_as_one_pass(bad, m, names_all):
    # neither the pass size nor how many of its failing rows a check names
    # changes what the walk returns, only how many calls it makes
    whole = rows_that_evaluate(checked(bad, m)[0], m)
    for width in (_PASS_ENTRIES // 4, _PASS_ENTRIES // 3, _PASS_ENTRIES, 3 * _PASS_ENTRIES):
        evaluate, calls = checked(bad, m, names_all)
        kept, values, failure = rows_that_evaluate(evaluate, m, width)
        sizes = [len(np.arange(m)[rows]) for rows in calls]
        assert all(size <= max(1, _PASS_ENTRIES // width) for size in sizes)
        np.testing.assert_array_equal(kept, whole[0])
        np.testing.assert_array_equal(values, whole[1])
        if whole[2] is None:
            assert failure is None
        else:
            assert failure[0] == whole[2][0] and str(failure[1]) == str(whole[2][1])


def test_an_invalid_pair_is_a_parameter_error():
    assert issubclass(CombinationError, ParameterError)
