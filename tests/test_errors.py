import numpy as np
import pytest

from finpop.errors import _PASS_ENTRIES, DegenerateError, rows_that_evaluate


def failing_at(bad, m):
    """A row-wise evaluation of rows 0..m-1 whose rows in ``bad`` fail; it
    records each (lo, hi) it is called with."""
    calls = []

    def evaluate(lo, hi):
        calls.append((lo, hi))
        hit = [r for r in range(lo, hi) if r in bad]
        if hit:
            raise DegenerateError(f"row {hit[0]}").at_row(hit[0] - lo)
        return np.arange(lo, hi) * 10.0

    return evaluate, calls


def test_keeps_the_rows_that_evaluate_and_names_the_first_failure():
    evaluate, _ = failing_at({2, 5, 6}, 9)
    kept, values, failure = rows_that_evaluate(evaluate, 9)
    np.testing.assert_array_equal(kept, [0, 1, 3, 4, 7, 8])
    np.testing.assert_array_equal(values, kept * 10.0)
    row, error = failure
    assert row == 2 and str(error) == "row 2"
    # evaluation went on past it, so it keeps no frames alive
    assert error.__traceback__ is None


def test_without_failures_one_call_covers_every_row():
    evaluate, calls = failing_at(set(), 4)
    kept, values, failure = rows_that_evaluate(evaluate, 4)
    assert calls == [(0, 4)] and failure is None
    np.testing.assert_array_equal(values, [0.0, 10.0, 20.0, 30.0])


def test_stop_at_failure_evaluates_nothing_past_the_first_failing_row():
    evaluate, calls = failing_at({2, 5}, 9)
    kept, values, failure = rows_that_evaluate(evaluate, 9, stop_at_failure=True)
    assert calls == [(0, 9), (0, 2)]
    np.testing.assert_array_equal(kept, [0, 1])
    assert failure[0] == 2 and failure[1].__traceback__ is not None


def test_no_rows():
    kept, values, failure = rows_that_evaluate(failing_at(set(), 0)[0], 0)
    assert kept.size == values.size == 0 and failure is None


@pytest.mark.parametrize("stop_at_failure", [False, True])
@pytest.mark.parametrize(
    "bad,m", [({2, 5, 6}, 9), (set(), 4), ({2, 5}, 9), ({0, 1, 8}, 9), (set(), 0)]
)
def test_bounded_passes_walk_as_one_pass(bad, m, stop_at_failure):
    whole = rows_that_evaluate(failing_at(bad, m)[0], m, stop_at_failure=stop_at_failure)
    for width in (_PASS_ENTRIES // 4, _PASS_ENTRIES // 3, _PASS_ENTRIES, 3 * _PASS_ENTRIES):
        evaluate, calls = failing_at(bad, m)
        kept, values, failure = rows_that_evaluate(
            evaluate, m, width, stop_at_failure=stop_at_failure
        )
        assert all(hi - lo <= max(1, _PASS_ENTRIES // width) for lo, hi in calls)
        np.testing.assert_array_equal(kept, whole[0])
        np.testing.assert_array_equal(values, whole[1])
        if whole[2] is None:
            assert failure is None
        else:
            assert failure[0] == whole[2][0] and str(failure[1]) == str(whole[2][1])
