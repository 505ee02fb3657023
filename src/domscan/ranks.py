"""Rank-space transform: real coordinates to dense 1-based ranks to bits.

Ranks preserve every strict inequality and every tie of the original
coordinates, so aggregations over dominated points are unchanged by the
transform. Each dimension gets its own fixed width, just large enough
for the number of distinct values in that dimension. The pipeline
encodes ranks as integer prefix codes (``bits.prefix_codes``);
:func:`binarize` gives their bitstring form.
"""

from __future__ import annotations

from .bits import bin_fixed
from .monoids import SUM


def width_for(unique: int) -> int:
    """Bits needed for 0-based ranks over ``unique`` distinct values."""
    return max(1, (unique - 1).bit_length())


def _opens_rank(prev, cur, position):
    # 1 where a new distinct value starts. The first element always opens
    # a rank: its shifted predecessor is the max unit -inf, which a -inf
    # coordinate does not exceed. Only elementwise operators, so it also
    # reads whole columns.
    return ((prev < cur) | (position == 0)) * 1


def rank_dimension(dq, dim: int, backend):
    """Dense 1-based ranks of each point's ``dim`` coordinate.

    Returns ``(ranks, unique)`` where ``ranks`` is aligned with ``dq``
    and ``unique`` is the number of distinct coordinate values. Equal
    coordinates receive equal ranks.

    Built from sequence primitives only: pair each coordinate with its
    original position, sort, compare every element with its shifted
    predecessor, prefix-sum the difference flags, then sort the ranks
    back into the original order.
    """
    if not dq:
        raise ValueError("rank_dimension: empty input")
    b = backend
    n = len(dq)
    coords = b.map(lambda p: p.coords[dim], dq)
    scoords, positions = b.sort(b.zip(coords, range(n))).columns
    prev = b.shift(scoords)
    flags = b.map(_opens_rank, prev, scoords, range(n))
    sorted_ranks = b.scan(flags, SUM)
    unique = b.broadcast_max(sorted_ranks)[-1]
    restored = b.sort(b.zip(positions, sorted_ranks))
    return restored.columns[1], unique


def binarize(ranks, unique: int, backend) -> list[str]:
    """Fixed-width bitstrings for 1-based ranks out of ``unique`` values.

    Rank r is encoded 0-based as ``bin_fixed(r - 1, width_for(unique))``
    so the lexicographic order of the strings matches the numeric order
    of the ranks.
    """
    width = width_for(unique)

    def encode(r):
        if not 1 <= r <= unique:
            raise ValueError(f"rank {r} outside 1..{unique}")
        return bin_fixed(r - 1, width)

    return backend.map(encode, ranks)
