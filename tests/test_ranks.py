import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from backends import BACKENDS, HAVE_NUMPY, run_on
from domscan.bits import prefix_codes
from domscan.monoids import COUNT, SUM
from domscan.oracle import brute_force, brute_force_ranks
from domscan.pipeline import PipelineConfig, data_point, point_table, query_point
from domscan.primitives import SequentialBackend, make_backend
from domscan.ranks import binarize, is_data, rank_dimension, width_for

b = SequentialBackend()
inf = math.inf


def ranked(data, queries, backend):
    """``rank_dimension`` over one-coordinate points on ``backend``: data
    at the values ``data``, then queries at the values ``queries``.
    Returns ``(data ranks, query ranks, count)``."""
    data_points = point_table([data_point(i, (v,)) for i, v in enumerate(data)], False, 1)
    query_points = point_table([query_point(-1 - i, (v,)) for i, v in enumerate(queries)], True, 1)
    on = b if backend == "seq" else make_backend(data_points, query_points, COUNT, 1)
    assert on.name == backend
    dq = on.concat(data_points, query_points)
    ranks, count = rank_dimension(dq, 0, on.map(is_data, dq), on)
    ranks = list(ranks)
    return ranks[: len(data)], ranks[len(data) :], count


def counted_ranks(data, queries):
    """Compressed ranks by counting: a point's rank is one plus the number
    of distinct positive counts of data strictly below a query, over the
    queries at or below the point."""

    def below(y):
        return sum(x < y for x in data)

    def rank(v):
        return 1 + len({below(y) for y in queries if y <= v and below(y) > 0})

    return [rank(v) for v in data], [rank(v) for v in queries]


def test_rank_dimension_mixed_values():
    # one rank opens, at the query 6.0 after the data 5.0
    for backend in BACKENDS:
        assert ranked([5.0, 2.0, 5.0, 7.0, 1.0], [6.0], backend) == ([1, 1, 1, 2, 1], [2], 2)
        # queries first on ties: the data 5.0 ranks with the query 5.0, not below it
        assert ranked([5.0, 2.0, 5.0, 7.0], [5.0, 6.0], backend) == ([2, 1, 2, 3], [2, 3], 3)


def test_rank_dimension_singleton():
    for backend in BACKENDS:
        assert ranked([4.0], [], backend) == ([1], [], 1)
        assert ranked([], [4.0], backend) == ([], [1], 1)


def test_rank_dimension_all_equal():
    for backend in BACKENDS:
        assert ranked([1.0, 1.0, 1.0], [1.0], backend) == ([1, 1, 1], [1], 1)


def test_rank_dimension_infinite_values():
    for backend in BACKENDS:
        assert ranked([-inf, 0.0, -inf, inf], [-0.0, inf], backend) == ([1, 2, 1, 3], [2, 3], 3)
        assert ranked([-inf], [-inf], backend) == ([1], [1], 1)
        # -0.0 ties with 0.0, so the data 0.0 is not below the query -0.0
        assert ranked([0.0, -0.0, -inf], [-0.0, 0.0], backend) == ([2, 2, 1], [2, 2], 2)


def test_rank_dimension_rejects_empty():
    with pytest.raises(ValueError, match="empty"):
        rank_dimension([], 0, [], b)


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
# -0.0 are the edges of the float order and of float equality. Either
# role may be empty, but not both.
values = st.lists(
    st.one_of(st.integers(0, 12).map(lambda n: n / 4), st.sampled_from([-inf, inf, -0.0])),
    max_size=30,
)
roles = st.tuples(values, values).filter(lambda pair: pair[0] or pair[1])


@given(roles)
def test_ranks_match_counting_reference(pair):
    data, queries = pair
    for backend in BACKENDS:
        data_ranks, query_ranks, count = ranked(data, queries, backend)
        assert (data_ranks, query_ranks) == counted_ranks(data, queries)
        for x, rx in zip(data, data_ranks):
            for y, ry in zip(queries, query_ranks):
                assert (x < y) == (rx < ry)
        assert min(data_ranks + query_ranks) == 1
        assert max(data_ranks + query_ranks) == count <= 1 + min(len(data), len(queries))
    if HAVE_NUMPY:
        import numpy as np

        from domscan.vector import rank_count

        assert rank_count(np.array(data, dtype=float), np.array(queries, dtype=float)) == count


@given(roles)
def test_binarized_ranks_preserve_order(pair):
    data, queries = pair
    for backend in BACKENDS:
        data_ranks, query_ranks, count = ranked(data, queries, backend)
        data_bits = binarize(data_ranks, count, b)
        query_bits = binarize(query_ranks, count, b)
        for x, bx in zip(data, data_bits):
            for y, by in zip(queries, query_bits):
                assert (x < y) == (bx < by)
        assert len({len(s) for s in data_bits + query_bits}) == 1


def dense_expansion(data, queries):
    """Expanded rows the basic variant would make with one rank per
    distinct coordinate, counted from the prefix codes."""
    points = [*data, *queries]
    total = [1] * len(points)
    for values in zip(*(p.coords for p in points)):
        ranks = brute_force_ranks(values)
        width = width_for(max(ranks))
        for i, (rank, p) in enumerate(zip(ranks, points)):
            total[i] *= len(prefix_codes(rank - 1, width, int(p.is_query)))
    return sum(total)


def test_lopsided_input_expands_less_than_dense_ranks():
    # 2,000 data points and 20 queries: at most 21 ranks a dimension
    rng = random.Random(22)
    data = [data_point(i, (rng.random(), rng.random()), rng.randint(-9, 9)) for i in range(2000)]
    queries = [query_point(2000 + i, (rng.random(), rng.random())) for i in range(20)]
    cfg = PipelineConfig(2, SUM)
    want = brute_force(data, queries, SUM)
    for backend in BACKENDS:
        got, stats = run_on(backend, data, queries, cfg)
        assert [(r.id, r.value) for r in got] == sorted(want.items())
        assert max(stats.widths) <= width_for(21)
        assert stats.expanded_count < dense_expansion(data, queries) / 2
