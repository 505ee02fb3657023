"""The numpy backend: the primitive contract over whole columns.

:func:`domscan.primitives.make_backend` imports this module on the
first run that qualifies, so ``import domscan`` never loads numpy.

A backend is built for one run's point tables, converted to
:class:`PointColumns` by :func:`point_columns`; it is built only when
the conversion keeps every result of the sequential backend, down to
the type of each value:

- every coordinate round-trips through float64 exactly, and every id
  is an ``int`` that fits int64;
- count and sum weights are ``int``; min and max weights are all ``int``
  (each round-tripping through float64) or all ``float`` (no NaN, no
  -0.0), so equal weights have equal ``repr``;
- packed keys fit in int64, ``sum(w + 1) <= 63`` over the rank widths,
  and no scan can overflow int64 (:func:`fits_int64`).

Sequences are :class:`Column` objects: 1-D arrays that read like Python
sequences (``len``, truth, iteration and a scalar index give Python
values; an index array gives a :class:`Column`). Sorting packs the key
columns with the row index into one int64 and sorts those values, a
float key column packed as its dense codes; only keys that need more
than 63 bits fall back to a lexsort. Scans use ``ufunc.accumulate``.
Functions given to ``map`` are called once on whole arrays, so they
must work elementwise (operators, indexing) or carry their
whole-column form as a ``columns`` attribute. A flatmap kernel always
carries one: given the input columns, it returns the columns of all
of its outputs at once.

Full-length integer columns are int32 where their values are known to
fit it, and int64 otherwise: the expansion's point indices, and its
keys when ``sum(w + 1) <= 31``; sum weights whose absolute values add
up to less than ``2**31``, and min/max weight codes; every column a
sort reads back out of its packed values whose field is at most 31
bits wide (ranks, positions, keys, point indices). Every scan of
integers works on an int64 copy, so sums are exact whatever the width
of their input.
"""

from __future__ import annotations

import math

import numpy as np

from . import bits
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
        """The element at a scalar index as a Python value; the elements
        at an index array as a :class:`Column` with the same decoding."""
        value = self.a[i]
        if isinstance(value, np.ndarray):
            return Column(value, self.decode)
        value = value.item()
        return value if self.decode is None else self.decode[value]

    def __eq__(self, other):
        try:
            return list(self) == list(other)
        except TypeError:
            return NotImplemented

    __hash__ = None

    def __repr__(self):
        return f"Column({list(self)!r})"


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

    def __getitem__(self, index) -> PointColumns:
        return PointColumns(
            self.id[index], self.coords[:, index], self.weight[index], self.is_query[index]
        )


def _int_type(low: int, high: int):
    """int32 where every integer in ``low..high`` fits it, otherwise int64."""
    return np.int32 if -(1 << 31) <= low and high < 1 << 31 else np.int64


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
        values = np.zeros(len(weights) + n_queries, dtype=_int_type(-magnitude, magnitude))
        values[: len(weights)] = weights
        return Column(values), magnitude
    if not (types <= {int} or types == {float}):
        return None
    objects = [*weights, monoid.unit]
    try:
        values = np.array(objects, dtype=np.float64)
    except OverflowError:
        return None
    if values.tolist() != objects:  # an int that float64 rounds
        return None
    if np.any(np.signbit(values) & (values == 0)):
        return None
    distinct, first, codes = np.unique(values, return_index=True, return_inverse=True)
    decode = [objects[i] for i in first.tolist()]
    column = np.concatenate((codes[:-1], np.full(n_queries, codes[-1])), dtype=_int_type(0, len(distinct)))
    return Column(column, decode), len(distinct)


def point_columns(data, queries, monoid, ranked: int) -> PointColumns | None:
    """The input (two :class:`~domscan.pipeline.PointTable`) as columns,
    or None when numpy cannot reproduce the sequential backend's results
    for it (see the module docstring)."""
    n = len(data) + len(queries)
    columns = [a + b for a, b in zip(data.coords, queries.coords)]
    id_list = data.ids + queries.ids
    if not set(map(type, id_list)) <= {int}:
        return None
    try:
        coords = np.array(columns, dtype=np.float64)
        ids = np.array(id_list, dtype=np.int64)
    except (TypeError, ValueError, OverflowError):
        return None
    if coords.tolist() != columns:
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


def _pack(columns):
    """``(packed, fields)``: integer columns packed into one int64 per row,
    the first column in the highest bits, so that packed values order
    as the rows do lexicographically; ``fields`` holds what
    :func:`_unpack` needs to read each column back. None when a column
    is not integer or the columns need more than 63 bits.

    The packed values are built in place, one column at a time: shift
    left by the column's width, add the column (widened to int64 as it
    is read, so a narrow column cannot overflow) and subtract its
    offset. No other full-length array is made.
    """
    bounds = []
    total = 0
    for c in columns:
        if c.dtype.kind not in "biu":
            return None
        low, high = int(c.min()), int(c.max())
        width = (high - low).bit_length()
        if low >= 0 and high.bit_length() == width:
            low = 0  # nothing to gain from an offset
        total += width
        if total > 63 or high >= _INT64_LIMIT:
            return None
        bounds.append((low, width))
    packed = np.zeros(len(columns[0]), dtype=np.int64)
    fields = []
    for c, (low, width) in zip(columns, bounds):
        packed <<= width
        np.add(packed, c, out=packed, dtype=np.int64, casting="unsafe")
        if low:
            packed -= low
        total -= width
        fields.append((total, low, width))
    return packed, fields


def _unpack(packed, field):
    """One column read back out of packed values: int32 where its field
    fits 31 bits, otherwise int64."""
    shift, low, width = field
    dtype = _int_type(low, low + (1 << width) - 1) if width <= 31 else np.int64
    out = np.empty(len(packed), dtype=dtype)
    np.right_shift(packed, shift, out=out, casting="unsafe")
    out &= (1 << width) - 1
    if low:
        out += low
    return out


def _row_index(n: int):
    return np.arange(n, dtype=_int_type(0, n - 1))


def _order(keys, n: int):
    """Stable sort order of rows under key columns, most significant first.

    The keys are packed with the row index into one int64 per row where
    they fit, so every packed value is distinct and an unstable sort of
    them gives the stable order; otherwise it is a lexsort. A float key
    is packed as its dense codes, equal for equal values (``-0.0`` and
    ``0.0`` included), so it keeps the order and the ties of the floats.
    """
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    keys = [np.unique(k, return_inverse=True)[1] if k.dtype.kind == "f" else k for k in keys]
    got = _pack([*keys, _row_index(n)])
    if got is None:
        return np.lexsort(keys[::-1])
    packed, fields = got
    packed.sort()
    return _unpack(packed, fields[-1])


def _sorted_records(columns: list[Column]) -> list[Column]:
    """The columns of records sorted stably by the first column.

    Where the integer columns fit, they are packed into one int64 per row
    together with the row index, placed after the key, so that every
    packed value is distinct and sorting them gives the stable order;
    the other columns ride in the low bits and come back out of the
    sorted values without a gather. When the second and last column is
    sorted already, equal keys keep their rows in its order, so it takes
    the place of the row index.
    """
    arrays = [c.a for c in columns]
    n = len(arrays[0])
    if n > 1 and all(a.dtype.kind in "biu" for a in arrays):
        indexed = not (len(arrays) == 2 and np.all(arrays[1][1:] >= arrays[1][:-1]))
        got = _pack([arrays[0], _row_index(n), *arrays[1:]] if indexed else arrays)
        if got is not None:
            packed, fields = got
            packed.sort()
            if indexed:
                del fields[1]
            return [Column(_unpack(packed, f), c.decode) for f, c in zip(fields, columns)]
    order = _order([arrays[0]], n)
    return [c[order] for c in columns]


def _ufunc(monoid):
    if monoid.ufunc is None:
        raise TypeError(f"monoid {monoid.name!r} has no vector form")
    return getattr(np, monoid.ufunc)


class NumpyBackend:
    """Every operation is a handful of whole-array numpy calls."""

    name = "numpy"

    def __init__(self, data=(), queries=(), points=None):
        self._input = (data, queries, points)

    def sort(self, x, key=None):
        """Stable sort; :class:`Records` are ordered by their first column,
        :class:`PointColumns` by the columns ``key`` returns."""
        if isinstance(x, Records):
            return Records(_sorted_records([_column(c) for c in x.columns]))
        if isinstance(x, PointColumns):
            keys = key(x)
            keys = list(keys) if isinstance(keys, tuple) else [keys]
            return x[_order(keys, len(x))]
        x = _column(x)
        keys = [x.a if key is None else _array(key(x.a))]
        return x[_order(keys, len(x))]

    def map(self, f, *xs):
        """``f`` (or its ``columns`` form) applied once to the whole
        arrays; a result that is not a :class:`Column` becomes one."""
        if len(xs) > 1:
            _check_lengths(xs)
        out = getattr(f, "columns", f)(*map(_array, xs))
        return out if isinstance(out, Column) else Column(np.asarray(out))

    def flatmap(self, f, *xs):
        """``f.columns(*xs)``, the kernel's whole-column form, called
        with the inputs as :class:`Column` (or :class:`PointColumns`):
        it returns every element's outputs, concatenated in input order,
        as :class:`Records` of columns."""
        if len(xs) > 1:
            _check_lengths(xs)
        return f.columns(*(x if isinstance(x, PointColumns) else _column(x) for x in xs))

    def zip(self, *xs):
        _check_lengths(xs)
        return Records([_column(x) for x in xs])

    def concat(self, x, y):
        data, queries, points = self._input
        if x is data and y is queries:
            return points
        return Column(np.concatenate((_array(x), _array(y))))

    def scan(self, x, monoid):
        out = _widened(_array(x))
        return Column(_ufunc(monoid).accumulate(out, out=out))

    def segmented_scan(self, x, tags, monoid):
        """Inclusive scan restarted at every change of tag.

        A sum is one running total over the values, with each segment's
        first value lowered by the total of the segment before it
        (Blelloch, *Prefix Sums and Their Applications*). A min or max
        scan works on integer codes offset per segment, so that no value
        of an earlier segment can win in a later one.
        """
        _check_lengths((x, tags))
        column = _column(x)
        a, t = column.a, _array(tags)
        n = len(a)
        ufunc = _ufunc(monoid)
        if n == 0:
            return column
        starts = np.empty(n, dtype=bool)
        starts[0] = True
        np.not_equal(t[1:], t[:-1], out=starts[1:])
        if ufunc is np.add:
            first = np.flatnonzero(starts)
            del starts
            out = _widened(a)
            np.subtract.at(out, first[1:], np.add.reduceat(out, first)[:-1])
            return Column(np.cumsum(out, out=out), column.decode)
        values = None
        if a.dtype.kind in "biu":
            a = a.astype(np.int64)
        else:
            values, a = np.unique(a, return_inverse=True)
        low = int(a.min())
        a -= low
        # each row's segment number (0 for the first) times the span of the codes
        starts[0] = False
        offsets = starts.astype(np.int64)
        del starts
        np.cumsum(offsets, out=offsets)
        offsets *= int(a.max()) + 1
        if ufunc is np.minimum:
            np.negative(offsets, out=offsets)
        a += offsets
        ufunc.accumulate(a, out=a)
        a -= offsets
        a += low
        return Column(a if values is None else values[a], column.decode)


def _widened(a):
    """A copy of ``a`` to scan in place: integers (bools included)
    narrower than 64 bits become int64, so that sums stay exact."""
    return a.astype(np.int64 if a.dtype.kind in "biu" and a.dtype.itemsize < 8 else a.dtype)


def _code_arrays(expansion) -> list:
    """Per ranked dimension of an expansion kernel (the pipeline's
    ``_Expansion``), ``(codes, counts, starts)``: the shifted prefix
    codes of every (rank, role) pair that occurs, pair by pair and
    shortest prefix first, and per point how many codes its pair has and
    where they start. A point's codes depend only on its rank and role,
    so each pair is expanded once, however many points share it.
    Computed once per kernel."""
    if expansion.arrays is None:
        expansion.arrays = []
        for ranks, width, shift in zip(expansion.ranks, expansion.widths, expansion.shifts):
            # one row per pair 2·(rank - 1) + is_query that occurs
            pair = (ranks.a - 1) * 2 + expansion.dq.is_query
            present = np.zeros(2 << width, dtype=bool)
            present[pair] = True
            row = np.cumsum(present)[pair] - 1
            rows = np.flatnonzero(present)[:, None]
            del pair, present
            x = rows >> 1
            lengths = np.arange(width)
            match = bits.next_bit(x, lengths, width) == (rows & 1)
            codes = bits.prefix_code(x >> (width - lengths), lengths, width)[match] << shift
            counts = match.sum(axis=1)
            expansion.arrays.append((codes, counts[row], (np.cumsum(counts) - counts)[row]))
    return expansion.arrays


def expand(expansion, points: Column):
    """Whole-column form of the pipeline's expansion kernel, for
    :meth:`NumpyBackend.flatmap`, built in stages: starting from one
    record ``(0, point)`` per point, each ranked dimension repeats every
    record once per code of its point there and adds the codes, which
    gives the records in the order ``itertools.product`` does."""
    key = np.zeros(len(points), dtype=_int_type(0, (1 << bits.key_bits(expansion.widths)) - 1))
    owner = points.a.astype(_int_type(0, len(points) - 1))
    for codes, per_point, starts in _code_arrays(expansion):
        n = per_point[owner]
        index = _row_index(int(n.sum()))
        index += np.repeat((starts[owner] - (np.cumsum(n) - n)).astype(index.dtype), n)
        key = np.repeat(key, n)
        key += codes.astype(key.dtype)[index]
        del index
        owner = np.repeat(owner, n)
    return Records((Column(key), Column(owner)))


def copy_counts(expansion, points):
    """How many records each point (an index array) expands to."""
    out = np.ones(len(points), dtype=np.int64)
    for _, counts, _ in _code_arrays(expansion):
        out *= counts[points]
    return out


def select_totals(totals: Column, points: PointColumns, copies: Column, ends: Column):
    """Whole-column form of the pipeline's final selection: one
    ``(id, value)`` row per query, the value being the last row of its
    group in ``totals`` or, for a query without copies, the unit its
    weight slot holds."""
    query = points.is_query
    values = points.weight.a[query].astype(np.int64)
    found = copies.a[query] > 0
    values[found] = totals.a[ends.a[query][found] - 1]
    return Records((Column(points.id[query]), Column(values, points.weight.decode)))
