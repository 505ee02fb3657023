"""Rank-space transform: real coordinates to compressed 1-based ranks to bits.

A run only ever compares a data point with a query, so a rank needs to
separate data from queries and nothing more. Per dimension, the points
are ordered by coordinate with queries first on ties, and a new rank
opens only where a query directly follows a data point. Then for every
data point x and query y, ``x < y`` exactly when ``r(x) < r(y)``; on a
tie ``r(x) >= r(y)``, so equal coordinates still dominate nothing, and
aggregations over dominated points are unchanged by the transform. A
dimension has at most ``1 + min(n_data, n_queries)`` ranks, and gets its
own fixed width, just large enough for their number. The pipeline
encodes ranks as integer prefix codes (``bits.prefix_codes``);
:func:`binarize` gives their bitstring form.
"""

from __future__ import annotations

from operator import itemgetter

from .bits import bin_fixed
from .monoids import MIN, SUM


def width_for(count: int) -> int:
    """Bits needed for ``count`` ranks, numbered from 0."""
    return max(1, (count - 1).bit_length())


def is_data(p):
    """Whether ``p`` is a data point; reads point columns too."""
    return p.is_query == 0


def _opens_rank(start, position, is_data):
    # 1 where a run of queries starts after a data point, and on the
    # first row. Only elementwise operators, so it also reads whole columns.
    return (start == position) * ((is_data == 0) | (position == 0))


def rank_dimension(dq, dim: int, data_flags, backend):
    """Compressed 1-based ranks of each point's ``dim`` coordinate.

    Returns ``(ranks, count)`` where ``ranks`` is aligned with ``dq``
    and ``count`` is the number of ranks; ``data_flags`` is the map of
    :func:`is_data` over ``dq``, which every dimension of a run shares.

    Built from sequence primitives only: sort the rows ``(coordinate,
    is_data, index)`` stably by ``(coordinate, is_data)``, so that ties
    come out queries first. A min-scan of the row indices segmented by
    the sorted flags gives every row the first row of its run of one
    role; a rank opens at the first row and where a run of queries
    starts. Prefix-sum those flags, then sort the ranks back into the
    original order. The flag sum never decreases, so its last element
    is ``count``.
    """
    if not dq:
        raise ValueError("rank_dimension: empty input")
    b = backend
    n = len(dq)
    coords = b.map(lambda p: p.coords[dim], dq)
    rows = b.sort(b.zip(coords, data_flags, range(n)), key=itemgetter(0, 1))
    _, sorted_roles, positions = rows.columns
    start = b.segmented_scan(range(n), sorted_roles, MIN)
    flags = b.map(_opens_rank, start, range(n), sorted_roles)
    sorted_ranks = b.scan(flags, SUM)
    count = sorted_ranks[-1]
    restored = b.sort(b.zip(positions, sorted_ranks))
    return restored.columns[1], count


def binarize(ranks, count: int, backend) -> list[str]:
    """Fixed-width bitstrings for 1-based ranks out of ``count``.

    Rank r is encoded 0-based as ``bin_fixed(r - 1, width_for(count))``
    so the lexicographic order of the strings matches the numeric order
    of the ranks.
    """
    width = width_for(count)

    def encode(r):
        if not 1 <= r <= count:
            raise ValueError(f"rank {r} outside 1..{count}")
        return bin_fixed(r - 1, width)

    return backend.map(encode, ranks)
