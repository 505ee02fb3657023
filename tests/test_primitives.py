from functools import reduce

import pytest
from hypothesis import given
from hypothesis import strategies as st

from domscan.monoids import MAX, SUM
from domscan.primitives import Records, SequentialBackend

NEG_INF = float("-inf")

b = SequentialBackend()

int_lists = st.lists(st.integers(min_value=-1000, max_value=1000), max_size=60)


def test_sort_small():
    assert b.sort([3, 1, 2]) == [1, 2, 3]
    assert b.sort([]) == []


def test_sort_tiebreak_by_id_is_deterministic():
    # equal keys resolved by the id carried in the element
    rows = [(2, "a"), (2, "b"), (1, "c")]
    assert b.sort(rows) == [(1, "c"), (2, "a"), (2, "b")]
    assert b.sort(b.sort(rows)) == b.sort(rows)


def test_sort_reverse_and_key():
    assert b.sort([1, 3, 2], reverse=True) == [3, 2, 1]
    assert b.sort(["bb", "a"], key=len) == ["a", "bb"]


def test_map():
    assert b.map(lambda n: n + 1, [1, 2, 3]) == [2, 3, 4]
    assert b.map(lambda n: n, []) == []
    assert b.map(lambda n: n, [5]) == [5]


def test_map_multiple_sequences():
    assert b.map(lambda x, y: x + y, [1, 2], [3, 4]) == [4, 6]
    assert b.map(lambda x, y: x, [], []) == []
    with pytest.raises(ValueError, match="lengths"):
        b.map(lambda x, y: x, [1], [1, 2])


def test_flatmap():
    assert b.flatmap(lambda n: [n, n], [1, 2]) == [1, 1, 2, 2]
    assert b.flatmap(lambda n: [], [1, 2, 3]) == []
    assert b.flatmap(lambda n: [n], []) == []


def test_flatmap_multiple_sequences():
    assert b.flatmap(lambda x, y: [x, y], [1], [2]) == [1, 2]


def test_zip():
    assert b.zip([1, 2], ["a", "b"]) == [(1, "a"), (2, "b")]
    assert b.zip([], []) == []
    with pytest.raises(ValueError, match=r"\[1, 2\]"):
        b.zip([1], ["a", "b"])


def test_scan():
    assert b.scan([1, 2, 3], SUM) == [1, 3, 6]
    assert b.scan([], SUM) == []
    assert b.scan([5], MAX) == [5]


def test_exclusive_scan():
    assert b.exclusive_scan([1, 2, 3], SUM) == [0, 1, 3]
    assert b.exclusive_scan([7], SUM) == [0]
    assert b.exclusive_scan([], SUM) == []


def test_shift():
    assert b.shift([1, 2, 3]) == [NEG_INF, 1, 2]
    assert b.shift([7]) == [NEG_INF]
    assert b.shift([]) == []


def test_broadcast_max():
    assert b.broadcast_max([3, 1, 2]) == [3, 3, 3]
    assert b.broadcast_max([5]) == [5]
    assert b.broadcast_max([2, 2]) == [2, 2]


def test_segmented_scan():
    assert b.segmented_scan([1, 2, 3, 4, 5, 6], [0, 0, 1, 1, 1, 2], SUM) == [1, 3, 3, 7, 12, 6]
    assert b.segmented_scan([9], ["t"], SUM) == [9]
    xs = [4, 1, 3]
    assert b.segmented_scan(xs, ["c"] * 3, SUM) == b.scan(xs, SUM)
    with pytest.raises(ValueError, match="lengths"):
        b.segmented_scan([1, 2], [0], SUM)


def test_records_sort_by_their_first_column_only():
    rows = b.zip([2, 1, 2, 1], ["d", "c", "b", "a"])
    assert isinstance(rows, Records) and len(rows) == 4
    # stable: equal keys keep their input order; the payload is never compared
    assert b.sort(rows) == [(1, "c"), (1, "a"), (2, "d"), (2, "b")]
    assert b.sort(rows, reverse=True) == [(2, "d"), (2, "b"), (1, "c"), (1, "a")]
    assert b.sort(b.zip([], [])) == []


def test_flatmap_concatenates_records_columnwise():
    out = b.flatmap(lambda n: Records(([n] * n, list(range(n)))), [2, 0, 1])
    assert isinstance(out, Records)
    assert out.columns == ([2, 2, 1], [0, 1, 0])


def test_concat():
    assert b.concat([1], [2, 3]) == [1, 2, 3]
    assert b.concat([], [4]) == [4]
    assert b.concat([4], []) == [4]


@given(int_lists)
def test_scan_last_equals_fold(xs):
    out = b.scan(xs, SUM)
    assert len(out) == len(xs)
    if xs:
        assert out[-1] == reduce(SUM.combine, xs)


@given(int_lists)
def test_scan_decomposes_into_exclusive_scan(xs):
    incl = b.scan(xs, SUM)
    excl = b.exclusive_scan(xs, SUM)
    assert incl == [SUM.combine(e, x) for e, x in zip(excl, xs)]


@given(int_lists)
def test_segmented_scan_degenerate_tags(xs):
    assert b.segmented_scan(xs, [0] * len(xs), SUM) == b.scan(xs, SUM)
    assert b.segmented_scan(xs, list(range(len(xs))), SUM) == xs


@given(int_lists)
def test_sort_idempotent_and_preserves_multiset(xs):
    once = b.sort(xs)
    assert b.sort(once) == once
    assert sorted(xs) == once
    assert xs == list(xs)  # input untouched


@given(int_lists, int_lists)
def test_flatmap_distributes_over_concat(xs, ys):
    f = lambda n: [n] * (abs(n) % 3)
    assert b.flatmap(f, b.concat(xs, ys)) == b.concat(b.flatmap(f, xs), b.flatmap(f, ys))
