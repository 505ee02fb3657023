"""The numpy backend: the primitive contract over whole columns.

:func:`domscan.primitives.make_backend` imports this module on the
first run that qualifies, so ``import domscan`` never loads numpy.

A backend is built for one run's input (:meth:`NumpyBackend.for_input`),
whose points it converts to :class:`PointColumns`; it is built only
when the conversion keeps every result of the sequential backend, down
to the type of each value:

- every coordinate round-trips through float64 exactly, and every id
  through int64;
- count and sum weights are ``int``; min and max weights are all ``int``
  (each round-tripping through float64) or all ``float`` (no NaN, no
  -0.0), so equal weights have equal ``repr``;
- packed keys fit in int64, ``sum(w + 1) <= 63`` over the rank widths,
  and no scan can overflow int64 (:func:`fits_int64`).

Sequences are :class:`Column` objects: 1-D arrays that read like Python
sequences (``len``, truth, iteration and indexing give Python values).
Sorting is a stable lexsort, scans use ``ufunc.accumulate``, and flatmap
uses ``repeat`` plus index arithmetic. Functions given to ``map`` are
called once on whole arrays, so they must be written with elementwise
operators; a function that cannot be (a flatmap kernel, say) carries
its whole-column form as a ``columns`` attribute.
"""

from __future__ import annotations

import math

import numpy as np

from . import bits
from .pipeline import PointTable, point_table
from .primitives import Records, _check_lengths
from .ranks import width_for

_INT64_LIMIT = 1 << 63


class Column:
    """One column: an array plus, for min/max weights, the Python object
    each code stands for.

    Min and max weights are stored as codes, the ranks of the distinct
    weights, so scans compare integers and every result decodes to one
    of the original weight objects.
    """

    __slots__ = ("a", "decode")

    def __init__(self, a, decode=None):
        self.a = a
        self.decode = decode

    def __len__(self):
        return len(self.a)

    def __bool__(self):
        return len(self.a) > 0

    def __iter__(self):
        values = self.a.tolist()
        return iter(values) if self.decode is None else map(self.decode.__getitem__, values)

    def __getitem__(self, i):
        value = self.a[i].item()
        return value if self.decode is None else self.decode[value]

    def __eq__(self, other):
        try:
            return list(self) == list(other)
        except TypeError:
            return NotImplemented

    __hash__ = None

    def __repr__(self):
        return f"Column({list(self)!r})"

    def take(self, index) -> Column:
        """The elements at ``index``, keeping the decoding."""
        return Column(self.a[index], self.decode)


class PointColumns:
    """Points as columns, under the same attribute names as a
    :class:`~domscan.pipeline.Point`, so a function of a point such as
    ``lambda p: p.coords[dim]`` also reads a whole column.

    ``coords[d]`` is dimension d's float64 column and ``weight`` holds
    the monoid unit in every query slot.
    """

    __slots__ = ("id", "coords", "weight", "is_query")

    def __init__(self, ids, coords, weight, is_query):
        self.id = ids
        self.coords = coords
        self.weight = weight
        self.is_query = is_query

    def __len__(self):
        return len(self.id)

    def take(self, index) -> PointColumns:
        return PointColumns(
            self.id[index], self.coords[:, index], self.weight.take(index), self.is_query[index]
        )


def fits_int64(widths, n_points: int, magnitude: int) -> bool:
    """Whether packed keys and every scan stay inside int64.

    A key needs ``sum(w + 1)`` bits. At most ``n_points * prod(widths)``
    records exist, and a scan over them adds at most that many values of
    size ``magnitude`` (the sum of absolute weights for sums, the number
    of distinct weights for min and max, whose scans offset codes per
    segment).
    """
    return (
        bits.key_bits(widths) <= 63
        and n_points * math.prod(widths) * max(magnitude, 1) < _INT64_LIMIT
    )


def _weights(weights, n_queries: int, monoid):
    """``(column, magnitude)`` for the data weights followed by the unit
    in every query slot, or None when numpy cannot reproduce the
    sequential results exactly."""
    types = set(map(type, weights))
    if monoid.ufunc == "add":
        if not types <= {int} or monoid.unit != 0:
            return None
        magnitude = sum(map(abs, weights))
        if magnitude >= _INT64_LIMIT:
            return None
        values = np.zeros(len(weights) + n_queries, dtype=np.int64)
        values[: len(weights)] = weights
        return Column(values), magnitude
    if not (types <= {int} or types == {float}):
        return None
    objects = [*weights, monoid.unit]
    try:
        values = np.array(objects, dtype=np.float64)
    except OverflowError:
        return None
    if values.tolist() != objects:  # also rejects NaN
        return None
    if np.any(np.signbit(values) & (values == 0)):
        return None
    distinct, first, codes = np.unique(values, return_index=True, return_inverse=True)
    decode = [objects[i] for i in first.tolist()]
    column = np.concatenate((codes[:-1], np.full(n_queries, codes[-1])))
    return Column(column.astype(np.int64), decode), len(distinct)


def point_columns(data, queries, monoid, ranked: int) -> PointColumns | None:
    """The input (two :class:`~domscan.pipeline.PointTable`) as columns,
    or None when numpy cannot reproduce the sequential backend's results
    for it (see the module docstring)."""
    n = len(data) + len(queries)
    columns = [a + b for a, b in zip(data.coords, queries.coords)]
    id_list = data.ids + queries.ids
    try:
        coords = np.array(columns, dtype=np.float64)
        ids = np.array(id_list, dtype=np.int64)
    except (TypeError, ValueError, OverflowError):
        return None
    if coords.tolist() != columns or ids.tolist() != id_list:
        return None
    weighted = _weights(data.weights, len(queries), monoid)
    if weighted is None:
        return None
    weight, magnitude = weighted
    widths = [width_for(len(np.unique(coords[d]))) for d in range(ranked)]
    if not fits_int64(widths, n, magnitude):
        return None
    is_query = np.zeros(n, dtype=bool)
    is_query[len(data) :] = True
    return PointColumns(ids, coords, weight, is_query)


def _array(x):
    """The array behind a sequence argument."""
    if isinstance(x, Column):
        return x.a
    if isinstance(x, range):
        return np.arange(x.start, x.stop, x.step)
    if isinstance(x, PointColumns):
        return x
    return np.asarray(x)


def _column(x) -> Column:
    return x if isinstance(x, Column) else Column(_array(x))


def _packed_order(keys, n: int):
    """Stable sort order of integer key columns, or None when they do not
    pack into int64.

    The keys and the row index are packed into one int64 per row, so
    every packed value is distinct and an unstable sort of them gives
    the stable order.
    """
    index_bits = max(n - 1, 0).bit_length()
    fields = []
    total = index_bits
    for k in keys:
        if k.dtype.kind not in "biu":
            return None
        k = k.astype(np.int64)
        low = int(k.min())
        span_bits = (int(k.max()) - low).bit_length()
        total += span_bits
        if total > 63:
            return None
        fields.append((k, low, span_bits))
    packed = np.arange(n, dtype=np.int64)
    shift = index_bits
    for k, low, span_bits in reversed(fields):
        packed |= (k - low) << shift
        shift += span_bits
    packed.sort()
    return packed & ((1 << index_bits) - 1)


def _order(keys, n: int, reverse: bool):
    """Stable sort order of rows under key columns, most significant first."""
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if reverse:
        # Stable descending: the ascending order of the reversed rows, reversed.
        return n - 1 - _order([k[::-1] for k in keys], n, False)[::-1]
    order = _packed_order(keys, n)
    return np.lexsort(keys[::-1]) if order is None else order


def _ufunc(monoid):
    if monoid.ufunc is None:
        raise TypeError(f"monoid {monoid.name!r} has no vector form")
    return getattr(np, monoid.ufunc)


class NumpyBackend:
    """Every operation is a handful of whole-array numpy calls."""

    name = "numpy"

    def __init__(self, data=(), queries=(), points=None):
        self._input = (data, queries, points)

    @classmethod
    def for_input(cls, data, queries, monoid, ranked: int):
        """A backend for one run, or None when the run must stay sequential.

        ``data`` and ``queries`` are the run's point tables, or lists of
        points, which are converted here."""
        tables = data, queries
        if not isinstance(data, PointTable):
            dims = len(next(iter((*data, *queries))).coords)
            tables = point_table(data, False, dims), point_table(queries, True, dims)
        points = point_columns(*tables, monoid, ranked)
        return None if points is None else cls(data, queries, points)

    def sort(self, x, key=None, reverse=False):
        """Stable sort; :class:`Records` are ordered by their first column,
        :class:`PointColumns` by the columns ``key`` returns."""
        if isinstance(x, Records):
            order = _order([_array(x.columns[0])], len(x), reverse)
            return Records([_column(c).take(order) for c in x.columns])
        if isinstance(x, PointColumns):
            keys = key(x)
            keys = list(keys) if isinstance(keys, tuple) else [keys]
            return x.take(_order(keys, len(x), reverse))
        x = _column(x)
        keys = [x.a if key is None else _array(key(x.a))]
        return x.take(_order(keys, len(x), reverse))

    def map(self, f, *xs):
        """``f`` (or its ``columns`` form) applied once to whole arrays."""
        if len(xs) > 1:
            _check_lengths(xs)
        out = getattr(f, "columns", f)(*map(_array, xs))
        return out if isinstance(out, Column) else Column(np.asarray(out))

    def flatmap(self, f, *xs):
        """``f.columns(*xs)``, called with the inputs as :class:`Column`
        (or :class:`PointColumns`), returns ``(counts, item)``: how many
        outputs each element makes, and ``item(src, k)``, the columns of
        the outputs given, per output, its element's index ``src`` and
        its index ``k`` among that element's outputs."""
        if len(xs) > 1:
            _check_lengths(xs)
        counts, item = f.columns(*(x if isinstance(x, PointColumns) else _column(x) for x in xs))
        counts = np.asarray(counts, dtype=np.int64)
        src = np.repeat(np.arange(len(counts)), counts)
        starts = np.cumsum(counts) - counts
        out = item(src, np.arange(len(src)) - starts[src])
        return out if isinstance(out, (Records, Column)) else Column(np.asarray(out))

    def zip(self, *xs):
        _check_lengths(xs)
        return Records([_column(x) for x in xs])

    def concat(self, x, y):
        data, queries, points = self._input
        if x is data and y is queries:
            return points
        return Column(np.concatenate((_array(x), _array(y))))

    def scan(self, x, monoid):
        a = _array(x)
        return Column(_ufunc(monoid).accumulate(a.astype(np.int64) if a.dtype == bool else a))

    def exclusive_scan(self, x, monoid):
        a = _array(x)
        if len(a) == 0:
            return Column(a)
        done = _ufunc(monoid).accumulate(a)
        return Column(np.concatenate(([monoid.unit], done[:-1])))

    def shift(self, x):
        a = _array(x)
        return Column(np.concatenate(([-np.inf], a[:-1])) if len(a) else a.astype(np.float64))

    def broadcast_max(self, x):
        a = _array(x)
        return Column(np.full(len(a), a.max()) if len(a) else a)

    def segmented_scan(self, x, tags, monoid):
        """Inclusive scan restarted at every change of tag.

        A sum is the running total minus the total before the segment.
        A min or max scan works on integer codes offset per segment, so
        that no value of an earlier segment can win in a later one.
        """
        if len(x) != len(tags):
            raise ValueError(f"sequences have different lengths: [{len(x)}, {len(tags)}]")
        column = _column(x)
        a, t = column.a, _array(tags)
        n = len(a)
        ufunc = _ufunc(monoid)
        if n == 0:
            return column
        starts = np.empty(n, dtype=bool)
        starts[0] = True
        np.not_equal(t[1:], t[:-1], out=starts[1:])
        segment = np.cumsum(starts) - 1
        if ufunc is np.add:
            total = np.cumsum(a)
            first = np.flatnonzero(starts)
            out = total - (total[first] - a[first])[segment]
            return Column(out, column.decode)
        values = None
        if a.dtype.kind not in "biu":
            values, a = np.unique(a, return_inverse=True)
        a = a.astype(np.int64)
        low = int(a.min())
        offsets = segment * (int(a.max()) - low + 1)
        if ufunc is np.maximum:
            out = np.maximum.accumulate(a - low + offsets) - offsets + low
        else:
            out = np.minimum.accumulate(a - low - offsets) + offsets + low
        return Column(out if values is None else values[out], column.decode)


def expand(widths, ranks, points: PointColumns, weights: Column):
    """Whole-column form of the pipeline's expansion kernel, for
    :meth:`NumpyBackend.flatmap`.

    Each point makes one record per element of the product of its
    per-dimension prefix code lists (zero-prefixes for data, one-
    prefixes for queries), in the order ``itertools.product`` gives:
    records ``(key, id, final, weight)``, where ``final`` marks a
    query's last record.
    """
    n = len(points)
    role = points.is_query
    counts = np.ones(n, dtype=np.int64)
    tables = []
    for rank, width, offset in zip(ranks, widths, bits.field_offsets(widths)):
        x = (rank.a - 1)[:, None]
        lengths = np.arange(width)
        match = bits.next_bit(x, lengths, width) == role[:, None]
        codes = bits.prefix_code(x >> (width - lengths), lengths, width)[match] << offset
        per_point = match.sum(axis=1)
        tables.append((per_point, np.cumsum(per_point) - per_point, codes))
        counts *= per_point

    def item(src, k):
        key = np.zeros(len(src), dtype=np.int64)
        rest = k
        for per_point, starts, codes in reversed(tables):
            size = per_point[src]
            key += codes[starts[src] + rest % size]
            rest = rest // size
        final = role[src] & (k == counts[src] - 1)
        return Records((key, points.id[src], final, weights.take(src)))

    return counts, item
