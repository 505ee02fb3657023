import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from backends import BACKENDS
from domscan.monoids import COUNT
from domscan.oracle import brute_force_ranks
from domscan.pipeline import data_point, point_table
from domscan.primitives import SequentialBackend, make_backend
from domscan.ranks import binarize, rank_dimension, width_for

b = SequentialBackend()
inf = math.inf


def ranked(values, backend):
    """``rank_dimension`` over one-coordinate data points on ``backend``,
    the ranks as a list."""
    data = point_table([data_point(i, (v,)) for i, v in enumerate(values)], False, 1)
    queries = point_table([], True, 1)
    on = b if backend == "seq" else make_backend(data, queries, COUNT, 1)
    assert on.name == backend
    ranks, unique = rank_dimension(on.concat(data, queries), 0, on)
    return list(ranks), unique


def test_rank_dimension_mixed_values():
    for backend in BACKENDS:
        assert ranked([5.0, 2.0, 5.0, 7.0], backend) == ([2, 1, 2, 3], 3)


def test_rank_dimension_singleton():
    for backend in BACKENDS:
        assert ranked([4.0], backend) == ([1], 1)


def test_rank_dimension_all_equal():
    for backend in BACKENDS:
        assert ranked([1.0, 1.0, 1.0], backend) == ([1, 1, 1], 1)


def test_rank_dimension_infinite_values():
    for backend in BACKENDS:
        assert ranked([-inf, 0.0, -inf, inf], backend) == ([1, 2, 1, 3], 3)
        assert ranked([-inf], backend) == ([1], 1)
        assert ranked([0.0, -0.0, -inf], backend) == ([2, 2, 1], 2)


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


# small pool of values forces repeated coordinates; the infinities and
# -0.0 are the edges of the float order and of float equality
coord_lists = st.lists(
    st.one_of(st.integers(0, 12).map(lambda n: n / 4), st.sampled_from([-inf, inf, -0.0])),
    min_size=1,
    max_size=50,
)


@given(coord_lists)
def test_ranks_match_counting_reference(values):
    for backend in BACKENDS:
        ranks, unique = ranked(values, backend)
        assert ranks == brute_force_ranks(values)
        assert max(ranks) == unique
        assert min(ranks) == 1
        assert len({r for r, v in zip(ranks, values) if v == 0}) <= 1  # -0.0 ranks with 0.0


@given(coord_lists)
def test_binarized_ranks_preserve_order(values):
    for backend in BACKENDS:
        ranks, unique = ranked(values, backend)
        bits = binarize(ranks, unique, b)
        for i, vi in enumerate(values):
            for j, vj in enumerate(values):
                assert (vi < vj) == (bits[i] < bits[j])
                assert (vi == vj) == (bits[i] == bits[j])
        assert len({len(s) for s in bits}) == 1
