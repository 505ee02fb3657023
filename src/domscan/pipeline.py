"""Aggregation over dominated points, composed from sequence primitives.

For every query point q the pipeline computes the monoid fold of the
weights of all data points that are strictly below q in every
coordinate. A run is a fixed-length chain of primitive calls:

1. Concatenate data and queries into one sequence.
2. Per ranked dimension: move coordinates to rank space and encode the
   ranks as fixed-width bitstrings (``ranks``).
3. Expand every point into the product of its per-coordinate prefix
   sets (``bits``): data points over zero-prefixes, queries over
   one-prefixes. A data point and a query produce the same expanded
   tuple exactly once if and only if the data point is dominated.
4. Sort the expansion; aggregate weights with a segmented scan keyed by
   the expanded tuple, so every query copy picks up the weights of the
   dominated data points that collided with it.
5. Regroup by point id (sort, segmented scan). The scan is inclusive,
   so the last slot of each id group holds that point's complete fold.

The basic variant ranks all ``dims`` dimensions. The improved variant
leaves the final coordinate as a raw real number and sorts it inside
each prefix segment, which shrinks the expansion by roughly the final
dimension's bit width; ties there order queries first so equal
coordinates stay strictly outside a query's reach.

Expanded records are plain tuples whose field order makes the natural
tuple comparison coincide with the required sort order; per-coordinate
bitstrings are joined into a single key string with a separator that
sorts below '0', which preserves the coordinate-wise lexicographic
order exactly.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import product, repeat
from operator import itemgetter
from typing import Any, NamedTuple

from .bits import one_prefix_list, zero_prefix_list
from .monoids import Monoid
from .primitives import CountingBackend, make_backend
from .ranks import binarize, rank_dimension, width_for

_SEP = "\x1f"  # joined-key separator; sorts below "0" and "1"

_key_of = itemgetter(0)
_role_of = itemgetter(2)
_id_of = itemgetter(3)
_weight_of = itemgetter(-1)
_value_of = itemgetter(3)

# Primitive invocations per run are a function of the dimension count
# only: 11 per ranked dimension (10 for ranking, 1 for binarizing) plus
# 14 fixed calls. The documented budget is the 6m+9 instruction outline
# plus the allowance below, which covers what that outline leaves
# implicit (realignment of ranks to input order at 5 extra calls per
# dimension, and column extraction and reattachment around the
# segmented scans) for dimensions up to four.
PLUMBING_CALLS = 25


@dataclass(frozen=True)
class Point:
    """Input record: unique id, m coordinates, weight, and a role flag.

    Queries take part in ranking and sorting like data points, but their
    weight is replaced by the monoid unit wherever aggregation happens.
    """

    id: int
    coords: tuple[float, ...]
    weight: Any = 1
    is_query: bool = False


def data_point(point_id: int, coords, weight: Any = 1) -> Point:
    return Point(point_id, tuple(coords), weight, False)


def query_point(point_id: int, coords) -> Point:
    return Point(point_id, tuple(coords), None, True)


class QueryResult(NamedTuple):
    id: int
    value: Any


@dataclass
class ExpansionStats:
    """Size and instrumentation record for one pipeline run.

    ``widths`` holds the bit width of every rank-encoded dimension (all
    of them in the basic variant, all but the last in the improved
    variant), so ``(data_count + query_count) * product(widths)`` bounds
    ``expanded_count``. ``elements_processed`` sums, over every
    primitive call, the lengths of its sequence arguments plus its
    output; ``primitive_calls`` counts the calls themselves.
    """

    data_count: int
    query_count: int
    expanded_count: int
    widths: tuple[int, ...]
    elements_processed: int = 0
    primitive_calls: int = 0
    phase_seconds: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PipelineConfig:
    dims: int
    monoid: Monoid
    variant: str = "basic"  # "basic" | "improved"


def weights_with_unit(dq, monoid: Monoid, backend):
    """Weight of each point, with queries mapped to the monoid unit."""
    unit = monoid.unit
    return backend.map(lambda p: unit if p.is_query else p.weight, dq)


def run(data, queries, cfg: PipelineConfig):
    """Run the variant selected by ``cfg``; see :func:`run_basic`."""
    if cfg.variant == "basic":
        return run_basic(data, queries, cfg)
    if cfg.variant == "improved":
        return run_improved(data, queries, cfg)
    raise ValueError(f"unknown variant {cfg.variant!r}")


def run_basic(data, queries, cfg: PipelineConfig):
    """Aggregate over dominated points with all dimensions rank-encoded.

    Returns ``(results, stats)`` where ``results`` holds one
    :class:`QueryResult` per query in ascending id order. Queries that
    dominate nothing (including every query when ``data`` is empty) get
    the monoid unit.
    """
    if cfg.variant != "basic":
        raise ValueError(f"run_basic called with variant {cfg.variant!r}")
    return _run(data, queries, cfg, improved=False)


def run_improved(data, queries, cfg: PipelineConfig):
    """Same contract as :func:`run_basic`, with the final coordinate kept
    as a raw real number instead of being rank-encoded, shrinking the
    expansion by about that dimension's bit width."""
    if cfg.variant != "improved":
        raise ValueError(f"run_improved called with variant {cfg.variant!r}")
    return _run(data, queries, cfg, improved=True)


def _validate(data, queries, cfg: PipelineConfig) -> None:
    if cfg.dims < 1:
        raise ValueError("dims must be at least 1")
    for p in data:
        if p.is_query:
            raise ValueError(f"query point {p.id} passed in the data sequence")
    for q in queries:
        if not q.is_query:
            raise ValueError(f"data point {q.id} passed in the query sequence")
    seen: set[int] = set()
    for p in (*data, *queries):
        if len(p.coords) != cfg.dims:
            raise ValueError(f"point {p.id} has {len(p.coords)} coordinates, expected {cfg.dims}")
        if any(map(math.isnan, p.coords)):
            raise ValueError(f"point {p.id} has a NaN coordinate")
        if p.id in seen:
            raise ValueError(f"duplicate point id {p.id}")
        seen.add(p.id)


def _run(data, queries, cfg: PipelineConfig, improved: bool):
    _validate(data, queries, cfg)
    monoid = cfg.monoid
    unit = monoid.unit
    b = CountingBackend(make_backend())
    phases: dict = {}
    last_mark = time.perf_counter()

    def mark(name):
        nonlocal last_mark
        now = time.perf_counter()
        phases[name] = phases.get(name, 0.0) + (now - last_mark)
        last_mark = now

    dq = b.concat(data, queries)
    if not dq:
        return [], ExpansionStats(0, 0, 0, (), b.elements, b.calls, phases)

    ranked = cfg.dims - 1 if improved else cfg.dims
    columns = []
    widths = []
    for dim in range(ranked):
        ranks, unique = rank_dimension(dq, dim, b)
        columns.append(binarize(ranks, unique, b))
        widths.append(width_for(unique))
    mark("rank")

    wts = weights_with_unit(dq, monoid, b)
    expand_one = _expander(improved)
    edq = b.flatmap(expand_one, *columns, dq, wts)
    mark("expand")

    sedq = b.sort(edq)
    mark("sort")

    # One segmented scan keyed by the expanded tuple: every query
    # copy absorbs the weights of the data copies it collided with.
    svals = b.map(_weight_of, sedq)
    stags = b.map(_key_of, sedq)
    a1 = b.segmented_scan(svals, stags, monoid)

    # Regroup the partial aggregations by point id. Records are
    # (id, position, is_data, value); the position makes the sort keys
    # total, so results are independent of input order. The scan is
    # inclusive, so the last slot of each id group holds the
    # complete aggregation, and the last record per id wins below.
    records = b.zip(b.map(_id_of, sedq), range(len(sedq)), b.map(_role_of, sedq), a1)
    by_id = b.sort(records)
    totals = b.segmented_scan(b.map(_value_of, by_id), b.map(_key_of, by_id), monoid)
    mark("aggregate")

    by_query: dict[int, Any] = {}
    for rec, value in zip(by_id, totals):
        if not rec[2]:  # query copies carry is_data False
            by_query[rec[0]] = value
    results = [
        QueryResult(q.id, by_query.get(q.id, unit))
        for q in sorted(queries, key=lambda p: p.id)
    ]
    mark("project")
    stats = ExpansionStats(
        len(data), len(queries), len(edq), tuple(widths), b.elements, b.calls, phases
    )
    return results, stats


def _expander(improved: bool):
    """Per-point expansion into sort-ready records.

    Records are ``(key, last, is_data, id, weight)``: ``last`` is the raw
    final coordinate in the improved variant and the role (data
    ``False``, queries ``True``) in the basic one, a dummy coordinate in
    which every data point lies strictly below every query. Plain tuple
    comparison equals the pipeline's sort order (data before queries on
    full-key ties in the basic variant, queries before data on ties of
    the raw coordinate in the improved one) and the trailing weight is
    never compared because ids are unique. Prefix lists are cached per
    bitstring and role; the cache also shares the string objects across
    records.
    """
    cache: dict = {}

    def prefixes(bitstring, is_query):
        got = cache.get((bitstring, is_query))
        if got is None:
            got = (one_prefix_list if is_query else zero_prefix_list)(bitstring)
            cache[(bitstring, is_query)] = got
        return got

    join = _SEP.join

    def expand_one(*args):
        point, weight = args[-2], args[-1]
        flag = point.is_query
        lists = [prefixes(bs, flag) for bs in args[:-2]]
        return list(
            zip(
                map(join, product(*lists)),
                repeat(point.coords[-1] if improved else flag),
                repeat(not flag),
                repeat(point.id),
                repeat(weight),
            )
        )

    return expand_one
