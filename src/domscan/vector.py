"""The numpy backend: the primitive contract over whole columns.

:func:`domscan.primitives.make_backend` imports this module on the
first run that qualifies, so ``import domscan`` never loads numpy.

A backend is built for one run's point tables, converted to
:class:`PointColumns` by :func:`point_columns`; it is built only when
the conversion keeps every result of the sequential backend, down to
the type of each value:

- every coordinate round-trips through float64 exactly, and every id
  is an ``int`` that fits int64;
- count and sum weights are ``int`` values that fit int64; min and max
  weights are all such ``int`` values with ``|w| <= 2**53`` (exact in
  float64) or all ``float`` (no NaN, no -0.0), so equal weights have
  equal ``repr``;
- packed keys fit in int64, ``sum(w + 1) <= 63`` over the rank widths,
  and no scan can overflow int64 (:func:`fits_int64`, which bounds the
  sum of absolute weights for sums).

Each table column is converted on its own, by one rule
(:func:`_as_array`): a :class:`Column` of int64 ids or weights or of
float64 coordinates, as ``read_points`` makes when numpy parses a file,
proves its value condition by its dtype and is used as it is; every
other column is checked value by value. Integer weights then meet only
their monoid's rules: a sum reads ``sum(|w|)``, a min or max reads the
minimum and maximum to find a weight past ``2**53``.

Sequences are :class:`Column` objects: 1-D arrays that read like Python
sequences (``len``, truth, iteration and a scalar index give Python
values; an index array gives a :class:`Column`, gathered with
``take``). Functions given to ``map``, and sort keys, are called once
on whole arrays, so they must work elementwise (operators, indexing).
A flatmap kernel carries its whole-column form as a ``columns``
attribute: given the input columns, it returns the columns of all of
its outputs at once. The other operations take what a run passes them
and raise ``TypeError`` for anything else, the sequential backend
being the general form: ``concat`` takes the run's two tables,
``sort`` takes :class:`Records` or :class:`PointColumns`, and a min or
max ``segmented_scan`` takes integers.

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
from bisect import bisect_left

import numpy as np

from . import bits
from .primitives import Records, _check_lengths
from .ranks import width_for

_INT64_LIMIT = 1 << 63


class Column:
    """One column: an array plus, for min/max weights, the Python object
    each code stands for. The columns of a point table that numpy parsed
    (``read_points``) are Columns too.

    Min and max weights are stored as codes, the ranks of the distinct
    weights, so scans compare integers and every result decodes to one
    of the original weight objects.

    A Column answers the run's input checks (a NaN, a float, a repeated
    value) from its dtype or with whole-array operations, and answers
    None when it holds codes or objects; the pipeline then reads the
    values (``pipeline._asked``).
    """

    __slots__ = ("a", "decode")

    def __init__(self, a, decode=None):
        self.a = a
        self.decode = decode

    def __len__(self):
        return len(self.a)

    def __iter__(self):
        values = self.a.tolist()
        return iter(values) if self.decode is None else map(self.decode.__getitem__, values)

    def _numeric(self) -> bool:
        """Whether the array holds the values themselves, as numbers (not
        codes, not objects), so that its dtype says what they are."""
        return self.decode is None and self.a.dtype.kind in "biuf"

    def has_nan(self) -> bool | None:
        """Whether a value is NaN: one reduction over a float array, none
        over an integer one; None for codes and objects."""
        if not self._numeric():
            return None
        return self.a.dtype.kind == "f" and bool(np.isnan(self.a).any())

    def has_float(self) -> bool | None:
        """Whether a value is a ``float``, read from the dtype; None for
        codes and objects."""
        if not self._numeric():
            return None
        return self.a.dtype.kind == "f" and len(self.a) > 0

    def repeats(self, other) -> bool | None:
        """Whether a value occurs twice in this column and ``other``
        together, answered with one sort and one comparison of
        neighbours; None unless both are integer columns of one dtype."""
        if not (
            isinstance(other, Column)
            and self._numeric()
            and other._numeric()
            and self.a.dtype == other.a.dtype
            and self.a.dtype.kind in "biu"
        ):
            return None
        values = np.concatenate((self.a, other.a))
        values.sort()
        return bool((values[1:] == values[:-1]).any())

    def __getitem__(self, i):
        """The element at a scalar index as a Python value; the elements
        at an integer index array as a :class:`Column` with the same
        decoding, gathered with ``take``."""
        if isinstance(i, np.ndarray):
            return Column(self.a.take(i), self.decode)
        value = self.a[i].item()
        return value if self.decode is None else self.decode[value]

    def __eq__(self, other):
        try:
            return list(self) == list(other)
        except TypeError:
            return NotImplemented

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
    sequential results exactly. Integer weights are converted as ids
    are (:func:`_as_array`), and then read as an array."""
    ints = _as_array(weights, np.int64)
    peak = max(-int(ints.min()), int(ints.max())) if ints is not None and len(ints) else 0
    if monoid.ufunc == "add":
        # fits_int64 refuses such a run anyway: n_points >= len(ints),
        # prod(widths) >= 1 and magnitude >= peak
        if ints is None or monoid.unit != 0 or peak * len(ints) >= _INT64_LIMIT:
            return None
        magnitude = int(np.abs(ints).sum())
        values = np.zeros(len(ints) + n_queries, dtype=_int_type(-magnitude, magnitude))
        values[: len(ints)] = ints
        return Column(values), magnitude
    if ints is not None:
        if peak > 1 << 53:
            return None
        values = np.append(ints, monoid.unit)  # float64, exact for |w| <= 2**53
    else:
        objects = [*weights, monoid.unit]
        if set(map(type, objects[:-1])) != {float}:
            return None
        values = np.array(objects)
        if np.any(np.isnan(values) | (np.signbit(values) & (values == 0))):
            return None
    distinct, first, codes = np.unique(values, return_index=True, return_inverse=True)
    if ints is None:
        decode = [objects[i] for i in first.tolist()]
    else:  # each weight back as an int, the unit (after the weights) as itself
        decode = [int(v) if i < len(ints) else monoid.unit for i, v in zip(first.tolist(), distinct.tolist())]
    column = np.concatenate((codes[:-1], np.full(n_queries, codes[-1])), dtype=_int_type(0, len(distinct)))
    return Column(column, decode), len(distinct)


def _as_array(column, dtype):
    """One table column of integers (int64) or coordinates (float64) as
    an array, or None when that would change a value: an integer that is
    not an ``int`` or is past int64, a coordinate that does not
    round-trip through float64. A :class:`Column` of ``dtype`` is used
    as it is."""
    if isinstance(column, Column) and column.decode is None and column.a.dtype == dtype:
        return column.a
    values = list(column)
    if dtype == np.int64 and not set(map(type, values)) <= {int}:
        return None
    try:
        array = np.array(values, dtype=dtype)
    except (TypeError, ValueError, OverflowError):  # an int past int64 raises here
        return None
    return array if dtype == np.int64 or array.tolist() == values else None


def rank_count(data, queries) -> int:
    """The number of ranks ``ranks.rank_dimension`` gives a dimension whose
    data and query coordinates are the arrays ``data`` and ``queries``.

    A rank opens at the first point and at each run of queries that
    follows a data point, in coordinate order with queries first on
    ties. Two queries are in one run exactly when equally many data
    points lie strictly below each, and a run follows a data point when
    that number is positive: so the count is one plus the number of
    distinct positive numbers of data points strictly below a query.
    Equal queries have equal numbers, so only the distinct query values
    are searched for."""
    below = np.searchsorted(np.sort(data), np.unique(queries))
    return 1 + int(np.count_nonzero(np.diff(below, prepend=0)))


def point_columns(data, queries, monoid, ranked: int) -> PointColumns | None:
    """The input (two :class:`~domscan.pipeline.PointTable`) as columns,
    or None when numpy cannot reproduce the sequential backend's results
    for it (see the module docstring)."""
    n = len(data) + len(queries)
    tables = (data, queries)
    ids = [_as_array(table.ids, np.int64) for table in tables]
    coords = [_as_array(column, np.float64) for table in tables for column in table.coords]
    if any(a is None for a in (*ids, *coords)):
        return None
    weighted = _weights(data.weights, len(queries), monoid)
    if weighted is None:
        return None
    weight, magnitude = weighted
    m = data.dims
    widths = [width_for(rank_count(coords[d], coords[m + d])) for d in range(ranked)]
    if not fits_int64(widths, n, magnitude):
        return None
    ids = np.concatenate(ids)
    coords = np.stack([np.concatenate(coords[d::m]) for d in range(m)])
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
    :func:`_unpack` needs to read each column back. None when the
    columns need more than 63 bits.

    The packed values are built in place, one column at a time: shift
    left by the column's width, add the column (widened to int64 as it
    is read, so a narrow column cannot overflow) and subtract its
    offset. No other full-length array is made.
    """
    bounds = []
    total = 0
    for c in columns:
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
    """Stable sort order of rows under key columns, most significant
    first, or None when the rows are in that order already.

    The keys are packed with the row index into one int64 per row where
    they fit, so every packed value is distinct: the rows are in order
    when the packed values increase, and otherwise an unstable sort of
    them gives the stable order. Keys that do not fit are lexsorted. A
    float key is packed as its dense codes, equal for equal values
    (``-0.0`` and ``0.0`` included), so it keeps the order and the ties
    of the floats.
    """
    if n == 0:
        return None
    keys = [np.unique(k, return_inverse=True)[1] if k.dtype.kind == "f" else k for k in keys]
    got = _pack([*keys, _row_index(n)])
    if got is None:
        return np.lexsort(keys[::-1])
    packed, fields = got
    if np.all(packed[1:] > packed[:-1]):
        return None
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
    return columns if order is None else [c[order] for c in columns]


class NumpyBackend:
    """Every operation is a handful of whole-array numpy calls."""

    name = "numpy"

    def __init__(self, data=None, queries=None, points=None):
        self._input = (data, queries, points)

    def sort(self, x, key=None):
        """Stable sort of :class:`Records` (by ``key`` of their column
        arrays, or by their first column) or :class:`PointColumns`; rows
        already in order come back as they are, ungathered."""
        if isinstance(x, Records):
            columns = [_column(c) for c in x.columns]
            if key is None:
                return Records(_sorted_records(columns))
            order = _order(list(key(tuple(c.a for c in columns))), len(x))
            return Records(columns if order is None else [c[order] for c in columns])
        if isinstance(x, PointColumns):
            order = _order(list(key(x)), len(x))
            return x if order is None else x[order]
        raise TypeError(f"numpy sort takes Records or PointColumns, not {type(x).__name__}")

    def map(self, f, *xs):
        """``f`` applied once to the whole arrays; a result that is not a
        :class:`Column` becomes one."""
        if len(xs) > 1:
            _check_lengths(xs)
        out = f(*map(_array, xs))
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
        if points is not None and x is data and y is queries:
            return points
        raise TypeError("numpy concat takes only the run's data and query tables")

    def scan(self, x, monoid):
        out = _widened(_array(x))
        return Column(getattr(np, monoid.ufunc).accumulate(out, out=out))

    def segmented_scan(self, x, tags, monoid):
        """Inclusive scan restarted at every change of tag.

        A sum is one running total over the values, with each segment's
        first value lowered by the total of the segment before it
        (Blelloch, *Prefix Sums and Their Applications*). A min or max
        scan takes integers (row indices, weight codes) offset per
        segment, so that no value of an earlier segment wins a later one.
        """
        _check_lengths((x, tags))
        column = _column(x)
        a, t = column.a, _array(tags)
        n = len(a)
        ufunc = getattr(np, monoid.ufunc)
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
        if a.dtype.kind not in "biu":
            raise TypeError(f"numpy {monoid.name} scans take integer columns, not {a.dtype}")
        a = a.astype(np.int64)
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
        return Column(a, column.decode)


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
    so each pair is expanded once, however many points share it."""
    arrays = []
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
        arrays.append((codes, counts[row], (np.cumsum(counts) - counts)[row]))
    return arrays


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


def kept_rows(dq: PointColumns, points: Column, partials: Column, unit):
    """Whole-column form of the pipeline's regroup filter: the rows
    ``(point, partial)`` whose point is a query and whose partial is not
    the unit, in input order. Min and max partials are codes, so they
    are compared with the unit's code; ``decode`` lists the distinct
    weights in ascending order, so bisection finds it. The rows are
    taken by index (``np.flatnonzero`` of one mask), which costs less per
    column than indexing with the mask."""
    if partials.decode is not None:
        unit = bisect_left(partials.decode, unit)
    keep = np.flatnonzero(dq.is_query.take(points.a) & (partials.a != unit))
    return Records((points[keep], partials[keep]))


def select_totals(points: Column, totals: Column, dq: PointColumns, indices: Column):
    """Whole-column form of the pipeline's final selection: one
    ``(id, value)`` row per query, the value being the last row of its
    group in ``totals``, found by binary search in the sorted regrouped
    ``points``, or, for a query without copies, the unit its weight
    slot holds."""
    query = dq.is_query
    index = indices.a[query].astype(points.a.dtype)  # so searchsorted converts no column
    values = dq.weight.a[query].astype(np.int64)
    last = np.searchsorted(points.a, index, side="right") - 1
    found = last >= 0
    found[found] = points.a[last[found]] == index[found]
    values[found] = totals.a[last[found]]
    return Records((Column(dq.id[query]), Column(values, dq.weight.decode)))
