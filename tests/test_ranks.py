import pytest
from hypothesis import given
from hypothesis import strategies as st

from domscan.oracle import brute_force_ranks
from domscan.pipeline import data_point
from domscan.primitives import SequentialBackend
from domscan.ranks import binarize, rank_dimension, width_for

b = SequentialBackend()


def points(values):
    return [data_point(i, (v,)) for i, v in enumerate(values)]


def test_rank_dimension_mixed_values():
    ranks, unique = rank_dimension(points([5.0, 2.0, 5.0, 7.0]), 0, b)
    assert ranks == [2, 1, 2, 3]
    assert unique == 3


def test_rank_dimension_singleton():
    assert rank_dimension(points([4.0]), 0, b) == ([1], 1)


def test_rank_dimension_all_equal():
    assert rank_dimension(points([1.0, 1.0, 1.0]), 0, b) == ([1, 1, 1], 1)


def test_rank_dimension_infinite_values():
    inf = float("inf")
    assert rank_dimension(points([-inf, 0.0, -inf, inf]), 0, b) == ([1, 2, 1, 3], 3)
    assert rank_dimension(points([-inf]), 0, b) == ([1], 1)


def test_rank_dimension_rejects_empty():
    with pytest.raises(ValueError, match="empty"):
        rank_dimension([], 0, b)


def test_width_for():
    assert width_for(1) == 1
    assert width_for(2) == 1
    assert width_for(3) == 2
    assert width_for(4) == 2
    assert width_for(5) == 3


def test_binarize():
    assert binarize([2, 1, 2, 3], 3, b) == ["01", "00", "01", "10"]
    assert binarize([1], 1, b) == ["0"]
    assert binarize([1, 2], 2, b) == ["0", "1"]
    with pytest.raises(ValueError, match="outside"):
        binarize([4], 3, b)
    with pytest.raises(ValueError, match="outside"):
        binarize([0], 3, b)


# small pool of values forces repeated coordinates
coord_lists = st.lists(st.integers(0, 12).map(lambda n: n / 4), min_size=1, max_size=50)


@given(coord_lists)
def test_ranks_match_counting_reference(values):
    ranks, unique = rank_dimension(points(values), 0, b)
    assert ranks == brute_force_ranks(values)
    assert max(ranks) == unique
    assert min(ranks) == 1


@given(coord_lists)
def test_binarized_ranks_preserve_order(values):
    ranks, unique = rank_dimension(points(values), 0, b)
    bits = binarize(ranks, unique, b)
    for i, vi in enumerate(values):
        for j, vj in enumerate(values):
            assert (vi < vj) == (bits[i] < bits[j])
            assert (vi == vj) == (bits[i] == bits[j])
    assert len({len(s) for s in bits}) == 1
