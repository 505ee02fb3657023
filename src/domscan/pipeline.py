"""Aggregation over dominated points, composed from sequence primitives.

For every query point q the pipeline computes the monoid fold of the
weights of all data points that are strictly below q in every
coordinate. A run is a fixed-length chain of primitive calls:

1. Concatenate data and queries into one sequence and sort it into the
   tie order: the order records with equal expanded keys must keep.
2. Per ranked dimension: move coordinates to rank space (``ranks``),
   ranks that separate data from queries and nothing more, sorting by
   ``(coordinate, is_data)`` so that ties come out queries first.
3. Expand every point into the product of its per-coordinate prefix
   code lists (``bits``): data points over zero-prefixes, queries over
   one-prefixes. A data point and a query produce the same expanded key
   exactly once if and only if the data point is dominated.
4. Sort the expansion by key, gather each record's weight and
   aggregate with a segmented scan keyed by the key, so every query
   copy picks up the weights of the dominated data points that
   collided with it.
5. Keep only the query rows whose partial is not the monoid unit (a
   filter flatmap: every other row changes no answer) and regroup them
   by point index (sort, segmented scan). The scan is inclusive, so the
   last row of each query's group holds that query's complete fold. A
   selection over the points reads it there, and a last sort puts the
   answers in id order.

The basic variant ranks all ``dims`` dimensions. The improved variant
leaves the final coordinate as a raw real number and orders records by
it inside each key segment, which shrinks the expansion by roughly the
final dimension's bit width; ties there order queries first so equal
coordinates stay strictly outside a query's reach.

Expanded records are :class:`~domscan.primitives.Records` columns
``(key, point)``. The key packs one prefix code per ranked dimension
into an integer; the point is the index of the record's point in the
tie-ordered sequence. The expansion emits points in index order and
the sorts are stable, so sorting by the key alone leaves every key
segment in tie order: data before queries in the basic variant, by the
raw final coordinate (queries first on ties) in the improved one, then
by id. After the regroup the point column is sorted, so point i's
group ends where that column moves past i, found by binary search; a
query with no kept row gets the monoid unit.

The answers come back as :class:`QueryResults`, two columns (ids and
values) that read as a list of :class:`QueryResult`.

The same chain runs on either backend :func:`make_backend` picks; the
whole-column backend (:mod:`~domscan.vector`) calls each flatmap
kernel's ``columns`` form on whole columns.
"""

from __future__ import annotations

import math
import sys
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain, product, repeat, starmap
from operator import add, attrgetter, ne
from typing import Any, NamedTuple

from . import bits
from .monoids import Monoid
from .primitives import CountingBackend, Records, make_backend
# binarize, the bitstring form of the ranks, is not part of the chain,
# which works on integer prefix codes; it stays reachable here because
# the benchmark's tracer wraps pipeline.binarize (perfbench/tracing.py).
from .ranks import binarize, is_data, rank_dimension, width_for  # noqa: F401

# Primitive invocations per run are a function of the dimension count
# only: 8 per ranked dimension plus 13 fixed calls. The documented
# budget is the 6m+9 instruction outline plus the allowance below,
# which covers what that outline leaves implicit (realignment of ranks
# to input order, the tie-order sort, the map of role flags that lets
# ranks separate only data from queries, the weight gather after the
# key sort, and selecting and ordering each query's total) for
# dimensions up to four.
PLUMBING_CALLS = 12


class InputError(ValueError):
    """Input domscan cannot use: a malformed point set, or a file that
    is malformed or cannot be read or written (:mod:`domscan.datafiles`)."""


@dataclass(frozen=True)
class Point:
    """Input record: unique id, m coordinates, weight, and a role flag.

    Queries take part in ranking and sorting like data points; :func:`run`
    gives each query the monoid unit as its weight, so it adds nothing
    to any fold.
    """

    id: int
    coords: tuple[float, ...]
    weight: Any = 1
    is_query: bool = False


class PointTable:
    """Points of one role as columns: ``ids``, ``coords`` (one sequence
    per dimension) and ``weights``, aligned by row. A column is any
    sequence whose elements are the Python values of its points.

    ``len()`` is the row count. Iteration yields a :class:`Point` per
    row, built from the columns.
    """

    __slots__ = ("ids", "coords", "weights", "is_query")

    def __init__(self, ids, coords, weights, is_query: bool):
        self.ids = ids
        self.coords = coords
        self.weights = weights
        self.is_query = is_query

    @property
    def dims(self) -> int:
        return len(self.coords)

    def __len__(self):
        return len(self.ids)

    def __iter__(self):
        rows = zip(self.ids, zip(*self.coords), self.weights)
        return (Point(i, c, w, self.is_query) for i, c, w in rows)

    def reweighted(self, weights) -> PointTable:
        """The table with ``weights`` in place of its own."""
        return PointTable(self.ids, self.coords, weights, self.is_query)


def point_table(points, is_query: bool, dims: int) -> PointTable:
    """``points`` (a :class:`PointTable` or an iterable of :class:`Point`)
    as a table of ``dims`` coordinate columns, checking every point's
    role and coordinate count and every column's length."""
    if isinstance(points, PointTable):
        if any(len(column) != len(points) for column in (*points.coords, points.weights)):
            raise InputError(f"point table columns differ in length from its {len(points)} ids")
        if not points:
            return PointTable([], [[] for _ in range(dims)], [], is_query)
        if points.is_query != is_query or points.dims != dims:
            _reject(points.ids[0], points.is_query, points.dims, is_query, dims)
        return points
    ids, rows, weights = [], [], []
    for p in points:
        if p.is_query != is_query or len(p.coords) != dims:
            _reject(p.id, p.is_query, len(p.coords), is_query, dims)
        ids.append(p.id)
        rows.append(p.coords)
        weights.append(p.weight)
    coords = [list(c) for c in zip(*rows)] if rows else [[] for _ in range(dims)]
    return PointTable(ids, coords, weights, is_query)


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


class QueryResults(Records):
    """The answers of a run: two columns, ``ids`` ascending and the
    aligned ``values``.

    Reads as a sequence of :class:`QueryResult`: ``len()``, indexing and
    iteration give them, and it compares equal to a list of them.
    """

    __slots__ = ()

    def __init__(self, ids, values):
        super().__init__((ids, values))

    @property
    def ids(self):
        return self.columns[0]

    @property
    def values(self):
        return self.columns[1]

    def __iter__(self):
        return starmap(QueryResult, zip(*self.columns))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(self)[i]
        return QueryResult(self.columns[0][i], self.columns[1][i])

    def __repr__(self):
        return f"QueryResults({list(self)!r})"


@dataclass
class ExpansionStats:
    """Size and instrumentation record for one pipeline run.

    ``widths`` holds the bit width of every rank-encoded dimension (all
    of them in the basic variant, all but the last in the improved
    variant), so ``(data_count + query_count) * product(widths)`` bounds
    ``expanded_count``. ``regrouped_count`` is the number of expanded
    rows kept for the regroup: query rows whose partial from the key
    scan is not the unit. ``elements_processed`` sums, over every
    primitive call, the lengths of its sequence arguments plus its
    output; ``primitive_calls`` counts the calls themselves.
    ``backend`` is the ``name`` of the backend that ran.
    """

    data_count: int
    query_count: int
    expanded_count: int
    regrouped_count: int
    widths: tuple[int, ...]
    elements_processed: int = 0
    primitive_calls: int = 0
    phase_seconds: dict = field(default_factory=dict)
    backend: str = "seq"

    @property
    def expansion_vs_bound(self) -> float:
        """``expanded_count`` over its bound; 0.0 for an empty run."""
        bound = (self.data_count + self.query_count) * math.prod(self.widths)
        return self.expanded_count / bound if bound else 0.0


@dataclass(frozen=True)
class PipelineConfig:
    dims: int
    monoid: Monoid
    variant: str = "basic"  # "basic" | "improved"


def _validate(data: PointTable, queries: PointTable) -> None:
    """Reject NaN coordinates, NaN weights and repeated ids. NaN is the
    value not equal to itself, for coordinates and weights alike. Each
    check first asks the column (:func:`_asked`); only a failing check,
    or one the column cannot answer, walks the values, naming the first
    offending point."""
    for table in (data, queries):
        if any(map(_has_nan, table.coords)):
            bad = next(p for p in table if any(map(ne, p.coords, p.coords)))
            raise InputError(f"point {bad.id} has a NaN coordinate")
    if _has_nan(data.weights):
        bad = next(p for p in data if p.weight != p.weight)
        raise InputError(f"point {bad.id} has a NaN weight")
    if _asked(data.ids, "repeats", queries.ids) is not False:
        seen: set = set()
        for i in chain(data.ids, queries.ids):
            if i in seen:
                raise InputError(f"duplicate point id {i}")
            seen.add(i)


def _asked(column, question: str, *args):
    """The column's own answer to ``question``, one of its methods, or
    None. A column of numpy's parse, a ``domscan.vector.Column``, answers
    from its dtype or with whole-array operations, or None when it holds
    codes or objects; the caller then scans the values. Asking keeps
    numpy out of this module."""
    method = getattr(column, question, None)
    return None if method is None else method(*args)


def _has_nan(column) -> bool:
    """Whether a value of ``column`` is NaN, that is, not equal to itself."""
    answer = _asked(column, "has_nan")
    return any(map(ne, column, column)) if answer is None else answer


def has_float(column) -> bool:
    """Whether a value of ``column`` is a ``float``."""
    answer = _asked(column, "has_float")
    return any(map(isinstance, column, repeat(float))) if answer is None else answer


def _check_float_range(data: PointTable, monoid: Monoid) -> None:
    """Reject integer weights whose sum is past float range where an adding
    monoid meets a float weight or unit: adding a float to such an int
    raises. The absolute integer weights bound every sum a run or the
    reference forms."""
    if monoid.combine is add and (isinstance(monoid.unit, float) or has_float(data.weights)):
        total = 0
        for point_id, weight in zip(data.ids, data.weights):
            total += abs(weight) if isinstance(weight, int) else 0
            if total > sys.float_info.max:
                raise InputError(f"point {point_id}: integer weights too large to sum with float weights")


def run(data, queries, cfg: PipelineConfig):
    """Aggregate over dominated points with the variant ``cfg`` selects.

    ``data`` and ``queries`` are :class:`PointTable` objects or iterables
    of :class:`Point`; either way they are turned into tables once
    (:func:`point_table`) and validated column by column. Returns
    ``(results, stats)`` where ``results`` is a :class:`QueryResults`,
    one :class:`QueryResult` per query in ascending id order. Queries
    that dominate nothing (including every query when ``data`` is empty)
    get the monoid unit.

    The basic variant rank-encodes all dimensions; the improved variant
    keeps the final coordinate as a raw real number, shrinking the
    expansion by about that dimension's bit width.
    """
    if cfg.variant not in ("basic", "improved"):
        raise ValueError(f"unknown variant {cfg.variant!r}")
    improved = cfg.variant == "improved"
    if cfg.dims < 1:
        raise InputError("dims must be at least 1")
    data = point_table(data, False, cfg.dims)
    queries = point_table(queries, True, cfg.dims)
    monoid = cfg.monoid
    _check_float_range(data, monoid)
    _validate(data, queries)
    # A query weighs the unit: it adds nothing to any fold it reaches.
    queries = queries.reweighted([monoid.unit] * len(queries))
    ranked = cfg.dims - 1 if improved else cfg.dims
    b = CountingBackend(make_backend(data, queries, monoid, ranked))
    phases: dict = {}
    last_mark = time.perf_counter()

    def mark(name):
        nonlocal last_mark
        now = time.perf_counter()
        phases[name] = phases.get(name, 0.0) + (now - last_mark)
        last_mark = now

    def stats(expanded, regrouped, widths):
        return ExpansionStats(
            len(data), len(queries), expanded, regrouped, tuple(widths),
            b.elements, b.calls, phases, b.inner.name,
        )

    dq = b.concat(data, queries)
    if not dq:
        return QueryResults([], []), stats(0, 0, ())
    dq = b.sort(dq, key=_tie_order(improved))

    data_flags = b.map(is_data, dq)
    ranks = []
    widths = []
    for dim in range(ranked):
        dim_ranks, count = rank_dimension(dq, dim, data_flags, b)
        ranks.append(dim_ranks)
        widths.append(width_for(count))
    mark("rank")

    n = len(dq)
    wts = b.map(attrgetter("weight"), dq)
    edq = b.flatmap(_Expansion(dq, ranks, widths), range(n))
    expanded = len(edq)
    mark("expand")

    keys, points = b.sort(edq).columns
    del edq
    mark("sort")

    # One segmented scan keyed by the expanded key: every query copy
    # absorbs the weights of the data copies it collided with.
    a1 = b.segmented_scan(b.map(wts.__getitem__, points), keys, monoid)
    del keys

    # Regroup by point index only the rows that can change an answer:
    # query rows whose partial is not the unit. The filter keeps the
    # rows in key order and the sort is stable, so each point's rows
    # stay together in key order, and the inclusive scan leaves a
    # query's complete aggregation on the last row of its group.
    kept = b.flatmap(_Kept(dq, monoid.unit), points, a1)
    del points, a1
    regrouped = len(kept)
    points, grouped = b.sort(kept).columns
    del kept
    totals = b.segmented_scan(grouped, points, monoid)
    del grouped
    mark("aggregate")

    rows = b.flatmap(_Total(points, totals), dq, range(n))
    del points, totals
    ids, values = b.sort(rows).columns
    mark("project")
    return QueryResults(ids, values), stats(expanded, regrouped, widths)


def _tie_order(improved: bool):
    """Sort key of the points: the order records keep inside a segment of
    equal expanded keys. Written with elementwise operators, so it also
    reads point columns."""
    if improved:
        # the raw final coordinate, queries (is_query 1) first on ties
        return lambda p: (p.coords[-1], 1 - p.is_query, p.id)
    # a dummy coordinate in which every data point is below every query
    return lambda p: (p.is_query, p.id)


# What a flatmap kernel returns for an element it drops, shared by all
# of them; also the regroup filter's output over no elements.
_NO_ROWS = Records(([], []))


class _Expansion:
    """Flatmap kernel: the expanded records ``(key, point)`` of the point
    with index ``point``.

    The keys are the sums over the product of the point's per-dimension
    prefix code lists (zero-prefixes for data, one-prefixes for queries),
    each code shifted to its dimension's field, in the order
    ``itertools.product`` gives. Code lists are cached per dimension,
    rank and role. :meth:`columns` is the same kernel over whole columns.
    """

    def __init__(self, dq, ranks, widths):
        self.dq = dq
        self.ranks = ranks
        self.widths = widths
        self.shifts = bits.field_offsets(widths)
        self._tables = None

    @property
    def tables(self) -> list:
        """Per ranked dimension, each point's shifted code list."""
        if self._tables is None:
            self._tables = [
                self._table(ranks, width, shift)
                for ranks, width, shift in zip(self.ranks, self.widths, self.shifts)
            ]
        return self._tables

    def _table(self, ranks, width, shift):
        cache: dict = {}
        table = []
        for rank, p in zip(ranks, self.dq):
            codes = cache.get((rank, p.is_query))
            if codes is None:
                codes = bits.prefix_codes(rank - 1, width, int(p.is_query))
                codes = cache[(rank, p.is_query)] = [c << shift for c in codes]
            table.append(codes)
        return table

    def __call__(self, point):
        keys = list(map(sum, product(*(table[point] for table in self.tables))))
        return Records((keys, [point] * len(keys)))

    def columns(self, points):
        from .vector import expand

        return expand(self, points)


class _Kept:
    """Flatmap kernel, a filter: the row ``(point, partial)`` of an
    expanded row whose point is a query and whose partial from the key
    scan is not the monoid unit; nothing otherwise.

    Only query rows are read after the regroup, and a partial equal to
    the unit in type and value changes no fold it would join. For min
    and max, ``min(x, inf)`` and ``max(x, -inf)`` are ``x``. For count,
    sum and fsum, a query row's partial is ``acc + unit`` or the unit
    itself, so it is never ``-0.0`` (``-0.0 + 0.0`` is ``0.0``), and
    neither is any running total of the regroup scan, a sum of such
    partials. Adding the unit to such a total gives it back bit for bit
    and of the same type (under fsum every such partial is a float, the
    unit being ``0.0``). Comparing values alone would also drop a
    ``0.0`` partial under sum, whose unit is the int ``0``, and turn a
    ``0.0`` answer into ``0``. :meth:`columns` is the same filter over
    whole columns.
    """

    empty = _NO_ROWS

    def __init__(self, dq, unit):
        self.dq = dq
        self.unit = unit

    def __call__(self, point, partial):
        unit = self.unit
        if not self.dq[point].is_query or (type(partial) is type(unit) and partial == unit):
            return _NO_ROWS
        return Records(([point], [partial]))

    def columns(self, points, partials):
        from .vector import kept_rows

        return kept_rows(self.dq, points, partials, self.unit)


class _Total:
    """Flatmap kernel: the ``(id, total)`` row of the query with index
    ``i``; nothing for a data point. The regrouped point column
    ``points`` is sorted, so the query's group ends where that column
    moves past ``i``. Its total is the last row of the group in
    ``totals``, or its own weight, the monoid unit, when it has no
    row there."""

    def __init__(self, points, totals):
        self.points = points
        self.totals = totals

    def __call__(self, point, i):
        if not point.is_query:
            return _NO_ROWS
        end = bisect_right(self.points, i)
        found = end > 0 and self.points[end - 1] == i
        return Records(([point.id], [self.totals[end - 1] if found else point.weight]))

    def columns(self, dq, indices):
        from .vector import select_totals

        return select_totals(self.points, self.totals, dq, indices)
