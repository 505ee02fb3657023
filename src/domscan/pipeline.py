"""Aggregation over dominated points, composed from sequence primitives.

For every query point q the pipeline computes the monoid fold of the
weights of all data points that are strictly below q in every
coordinate. A run is a fixed-length chain of primitive calls:

1. Concatenate data and queries into one sequence and sort it into the
   tie order: the order records with equal expanded keys must keep.
2. Per ranked dimension: move coordinates to rank space (``ranks``).
3. Expand every point into the product of its per-coordinate prefix
   code lists (``bits``): data points over zero-prefixes, queries over
   one-prefixes. A data point and a query produce the same expanded key
   exactly once if and only if the data point is dominated.
4. Sort the expansion by key; aggregate weights with a segmented scan
   keyed by it, so every query copy picks up the weights of the
   dominated data points that collided with it.
5. Regroup by point id (sort, segmented scan). The scan is inclusive,
   so the last copy of each query holds that query's complete fold.

The basic variant ranks all ``dims`` dimensions. The improved variant
leaves the final coordinate as a raw real number and orders records by
it inside each key segment, which shrinks the expansion by roughly the
final dimension's bit width; ties there order queries first so equal
coordinates stay strictly outside a query's reach.

Expanded records are :class:`~domscan.primitives.Records` columns
``(key, id, final, weight)``. The key packs one prefix code per ranked
dimension into an integer. The expansion emits points in tie order and
the sorts are stable, so sorting by the key alone leaves every key
segment in tie order: data before queries in the basic variant, by the
raw final coordinate (queries first on ties) in the improved one, then
by id. A query's copies are emitted in increasing key order (see
:func:`~domscan.bits.prefix_codes`), so ``final``, set on its last
copy, marks the copy that ends its id group after the regroup.

The same chain runs on either backend :func:`make_backend` picks; the
numpy backend calls each function's ``columns`` form, when it has one,
on whole columns.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import product
from operator import attrgetter
from typing import Any, NamedTuple

from . import bits
from .monoids import Monoid
from .primitives import CountingBackend, Records, make_backend
# binarize, the bitstring form of the ranks, is not part of the chain,
# which works on integer prefix codes; it stays reachable here because
# the benchmark's tracer wraps pipeline.binarize (perfbench/tracing.py).
from .ranks import binarize, rank_dimension, width_for  # noqa: F401

# Primitive invocations per run are a function of the dimension count
# only: 9 per ranked dimension plus 10 fixed calls. The documented
# budget is the 6m+9 instruction outline plus the allowance below,
# which covers what that outline leaves implicit (realignment of ranks
# to input order, the tie-order sort and the final selection of each
# query's total) for dimensions up to four.
PLUMBING_CALLS = 13


class InputError(ValueError):
    """Input domscan cannot use: a malformed point set, or a file that
    is malformed or cannot be read or written (:mod:`domscan.datafiles`)."""


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


class PointTable:
    """Points of one role as columns: ``ids``, ``coords`` (one list per
    dimension) and ``weights``, aligned by row.

    ``len()`` is the row count. Iteration yields :class:`Point` objects:
    the ones the table was made from (:func:`point_table`), or points
    built from the columns on first use.
    """

    __slots__ = ("ids", "coords", "weights", "is_query", "_points")

    def __init__(self, ids, coords, weights, is_query: bool, points=None):
        self.ids = ids
        self.coords = coords
        self.weights = weights
        self.is_query = is_query
        self._points = points

    @property
    def dims(self) -> int:
        return len(self.coords)

    def __len__(self):
        return len(self.ids)

    def __iter__(self):
        if self._points is None:
            rows = zip(self.ids, zip(*self.coords), self.weights)
            self._points = [Point(i, c, w, self.is_query) for i, c, w in rows]
        return iter(self._points)


def point_table(points, is_query: bool, dims: int) -> PointTable:
    """``points`` (a :class:`PointTable` or an iterable of :class:`Point`)
    as a table of ``dims`` coordinate columns, checking every point's
    role and coordinate count."""
    if isinstance(points, PointTable):
        if not points:
            return PointTable([], [[] for _ in range(dims)], [], is_query)
        if points.is_query != is_query or points.dims != dims:
            _reject(points.ids[0], points.is_query, points.dims, is_query, dims)
        return points
    points = list(points)
    ids, rows, weights = [], [], []
    for p in points:
        if p.is_query != is_query or len(p.coords) != dims:
            _reject(p.id, p.is_query, len(p.coords), is_query, dims)
        ids.append(p.id)
        rows.append(p.coords)
        weights.append(p.weight)
    coords = [list(c) for c in zip(*rows)] if rows else [[] for _ in range(dims)]
    return PointTable(ids, coords, weights, is_query, points)


def _reject(point_id, point_is_query, n_coords, is_query, dims):
    if point_is_query != is_query:
        role, sequence = ("data", "query") if is_query else ("query", "data")
        raise InputError(f"{role} point {point_id} passed in the {sequence} sequence")
    raise InputError(f"point {point_id} has {n_coords} coordinates, expected {dims}")


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
    ``backend`` names the backend that ran: ``"seq"`` or ``"numpy"``.
    """

    data_count: int
    query_count: int
    expanded_count: int
    widths: tuple[int, ...]
    elements_processed: int = 0
    primitive_calls: int = 0
    phase_seconds: dict = field(default_factory=dict)
    backend: str = "seq"


@dataclass(frozen=True)
class PipelineConfig:
    dims: int
    monoid: Monoid
    variant: str = "basic"  # "basic" | "improved"


def weights_with_unit(dq, monoid: Monoid, backend):
    """Weight of each point, with queries mapped to the monoid unit."""
    unit = monoid.unit

    def weight(p):
        return unit if p.is_query else p.weight

    # Point columns already hold the unit in every query slot.
    weight.columns = attrgetter("weight")
    return backend.map(weight, dq)


def run(data, queries, cfg: PipelineConfig):
    """Run the variant selected by ``cfg``; see :func:`run_basic`."""
    if cfg.variant == "basic":
        return run_basic(data, queries, cfg)
    if cfg.variant == "improved":
        return run_improved(data, queries, cfg)
    raise ValueError(f"unknown variant {cfg.variant!r}")


def run_basic(data, queries, cfg: PipelineConfig):
    """Aggregate over dominated points with all dimensions rank-encoded.

    ``data`` and ``queries`` are :class:`PointTable` objects or iterables
    of :class:`Point`; either way they are turned into tables once
    (:func:`point_table`) and validated column by column. Returns ``(results, stats)`` where ``results`` holds one
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


def _validate(data: PointTable, queries: PointTable) -> None:
    """Reject NaN coordinates, NaN weights and repeated ids. Each check
    scans whole columns; only a failing one walks the points, to name
    the first offending point."""
    for table in (data, queries):
        if any(any(map(math.isnan, column)) for column in table.coords):
            bad = next(p for p in table if any(map(math.isnan, p.coords)))
            raise InputError(f"point {bad.id} has a NaN coordinate")
    if any(w != w for w in data.weights):
        bad = next(p for p in data if p.weight != p.weight)
        raise InputError(f"point {bad.id} has a NaN weight")
    ids = [*data.ids, *queries.ids]
    if len(set(ids)) != len(ids):
        seen: set = set()
        for i in ids:
            if i in seen:
                raise InputError(f"duplicate point id {i}")
            seen.add(i)


def _run(data, queries, cfg: PipelineConfig, improved: bool):
    if cfg.dims < 1:
        raise InputError("dims must be at least 1")
    data = point_table(data, False, cfg.dims)
    queries = point_table(queries, True, cfg.dims)
    _validate(data, queries)
    monoid = cfg.monoid
    unit = monoid.unit
    ranked = cfg.dims - 1 if improved else cfg.dims
    b = CountingBackend(make_backend(data, queries, monoid, ranked))
    phases: dict = {}
    last_mark = time.perf_counter()

    def mark(name):
        nonlocal last_mark
        now = time.perf_counter()
        phases[name] = phases.get(name, 0.0) + (now - last_mark)
        last_mark = now

    def stats(expanded, widths):
        return ExpansionStats(
            len(data), len(queries), expanded, tuple(widths),
            b.elements, b.calls, phases, b.inner.name,
        )

    dq = b.concat(data, queries)
    if not dq:
        return [], stats(0, ())
    dq = b.sort(dq, key=_tie_order(improved))

    ranks = []
    widths = []
    for dim in range(ranked):
        dim_ranks, unique = rank_dimension(dq, dim, b)
        ranks.append(dim_ranks)
        widths.append(width_for(unique))
    mark("rank")

    wts = weights_with_unit(dq, monoid, b)
    edq = b.flatmap(_Expansion(widths), *ranks, dq, wts)
    mark("expand")

    sedq = b.sort(edq)
    mark("sort")

    # One segmented scan keyed by the expanded key: every query copy
    # absorbs the weights of the data copies it collided with.
    keys, ids, finals, weights = sedq.columns
    a1 = b.segmented_scan(weights, keys, monoid)

    # Regroup the partial aggregations by point id. The sort is stable,
    # so each group keeps the expansion order, and the inclusive scan
    # leaves a query's complete aggregation on its final copy.
    ids, finals, partial = b.sort(b.zip(ids, finals, a1)).columns
    totals = b.segmented_scan(partial, ids, monoid)
    mark("aggregate")

    by_query = dict(b.flatmap(_final_row, finals, ids, totals))
    results = [QueryResult(i, by_query.get(i, unit)) for i in sorted(queries.ids)]
    mark("project")
    return results, stats(len(edq), widths)


def _tie_order(improved: bool):
    """Sort key of the points: the order records keep inside a segment of
    equal expanded keys. Written with elementwise operators, so it also
    reads point columns."""
    if improved:
        # the raw final coordinate, queries (is_query 1) first on ties
        return lambda p: (p.coords[-1], 1 - p.is_query, p.id)
    # a dummy coordinate in which every data point is below every query
    return lambda p: (p.is_query, p.id)


class _Expansion:
    """Flatmap kernel: a point's expanded records ``(key, id, final, weight)``.

    Called with a point's rank in each ranked dimension, the point and
    its weight. The keys are the sums over the product of the point's
    per-dimension prefix code lists, each code shifted to its field;
    ``final`` marks a query's last (largest) key. Code lists are cached
    per dimension, rank and role. :meth:`columns` is the same kernel over
    whole columns, for the numpy backend.
    """

    def __init__(self, widths):
        self.widths = widths
        self.offsets = bits.field_offsets(widths)
        self.cache: dict = {}

    def _codes(self, dim, rank, is_query):
        got = self.cache.get((dim, rank, is_query))
        if got is None:
            shift = self.offsets[dim]
            codes = bits.prefix_codes(rank - 1, self.widths[dim], int(is_query))
            got = self.cache[(dim, rank, is_query)] = [c << shift for c in codes]
        return got

    def __call__(self, *args):
        *ranks, point, weight = args
        flag = point.is_query
        keys = list(map(sum, product(*(self._codes(d, r, flag) for d, r in enumerate(ranks)))))
        count = len(keys)
        final = [False] * count
        if flag and count:
            final[-1] = True
        return Records((keys, [point.id] * count, final, [weight] * count))

    def columns(self, *args):
        from .vector import expand

        *ranks, points, weights = args
        return expand(self.widths, ranks, points, weights)


def _final_row(final, point_id, total):
    """The ``(id, total)`` row of a query's final copy; nothing otherwise."""
    return [(point_id, total)] if final else []


# Over whole columns: one output row per set flag, gathered from its source row.
_final_row.columns = lambda finals, ids, totals: (
    finals.a,
    lambda src, k: Records((ids.take(src), totals.take(src))),
)
