"""Data-parallel operations over immutable ordered sequences.

Sequences are plain Python lists (or other sized, sliceable iterables
such as ranges). Operations never mutate their inputs and always return
fresh lists; callers are expected to treat every sequence as immutable.
Two sequences are equal exactly when they have the same length and
pairwise-equal elements.

The contract is the seven operations the pipeline's chain calls:
``concat``, ``sort``, ``map``, ``flatmap``, ``zip``, ``scan`` and
``segmented_scan``.

:class:`SequentialBackend` implements the contract with one
left-to-right pass per operation. Sorting is stable: ties under ``key``
keep their input order.

``map`` and ``flatmap`` follow the builtin ``map`` convention: passing
several sequences applies the function to aligned elements, which is
the zip-then-map (and zip-then-flatmap) combination.

Multi-field records are :class:`Records`: parallel columns that read
as a sequence of row tuples. ``zip`` builds them, ``sort`` orders them
by their first field, and a ``flatmap`` function may return them to
emit several columns at once.

:func:`make_backend` picks, per run, between :class:`SequentialBackend`
and the numpy backend of :mod:`domscan.vector`, which keeps the same
contract over whole columns.
"""

from __future__ import annotations

from itertools import accumulate, chain

from .monoids import Monoid

_NO_TAG = object()  # compares unequal to every real tag


def _check_lengths(seqs) -> None:
    lengths = [len(s) for s in seqs]
    if len(set(lengths)) > 1:
        raise ValueError(f"sequences have different lengths: {lengths}")


class Records:
    """A sequence of records stored as parallel columns.

    ``len()`` is the row count and iteration yields row tuples, so
    records compare equal to the list of their rows. Sorting orders the
    rows stably by the first column, the key; the other columns ride
    along and are never compared.
    """

    __slots__ = ("columns",)

    def __init__(self, columns):
        self.columns = tuple(columns)

    def __len__(self):
        return len(self.columns[0]) if self.columns else 0

    def __iter__(self):
        return zip(*self.columns)

    def __eq__(self, other):
        try:
            return list(self) == list(other)
        except TypeError:
            return NotImplemented

    __hash__ = None

    def __repr__(self):
        return f"Records({list(self)!r})"


class SequentialBackend:
    """Every operation is a single sequential pass."""

    name = "seq"

    def sort(self, x, key=None):
        """Sorted copy of ``x``, nondecreasing under ``key`` (or the
        elements' natural order). :class:`Records` are ordered stably by
        their first column."""
        if not isinstance(x, Records):
            return sorted(x, key=key)
        order = sorted(range(len(x)), key=x.columns[0].__getitem__)
        return Records([list(map(c.__getitem__, order)) for c in x.columns])

    def map(self, f, *xs):
        """``[f(e) for e in x]``; with several sequences, ``f`` is applied
        to aligned elements.

        >>> SequentialBackend().map(lambda a, b: a + b, [1, 2], [3, 4])
        [4, 6]
        """
        if len(xs) > 1:
            _check_lengths(xs)
        return list(map(f, *xs))

    def flatmap(self, f, *xs):
        """Concatenation of the lists produced by ``f`` per element (or
        per aligned element tuple), in input order; when ``f`` returns
        :class:`Records`, their columns are concatenated."""
        if len(xs) > 1:
            _check_lengths(xs)
        parts = list(map(f, *xs))
        if parts and isinstance(parts[0], Records):
            columns = zip(*(part.columns for part in parts))
            return Records([list(chain.from_iterable(c)) for c in columns])
        return list(chain.from_iterable(parts))

    def zip(self, *xs):
        """Records of aligned elements; all inputs must have equal length.

        >>> list(SequentialBackend().zip([1, 2], "ab"))
        [(1, 'a'), (2, 'b')]
        """
        _check_lengths(xs)
        return Records([list(x) for x in xs])

    def concat(self, x, y):
        """Elements of ``x`` followed by elements of ``y``."""
        return list(x) + list(y)

    def scan(self, x, monoid: Monoid):
        """Inclusive prefix aggregation: element i is the combine of
        x[0..i]. The last element equals the full fold."""
        return list(accumulate(x, monoid.combine))

    def segmented_scan(self, x, tags, monoid: Monoid):
        """Inclusive scan restarted at every change of tag.

        ``tags`` must be sorted (equal tags contiguous) and as long as
        ``x``; each maximal run of equal tags is scanned independently.
        A min-scan of the row indices gives every row the first row of
        its run:

        >>> from domscan.monoids import MIN
        >>> SequentialBackend().segmented_scan(range(5), [0.5, 0.5, 1.0, 1.0, 2.0], MIN)
        [0, 0, 2, 2, 4]
        """
        _check_lengths((x, tags))
        combine = monoid.combine
        out: list = []
        append = out.append
        prev = _NO_TAG
        acc = None
        for tag, value in zip(tags, x):
            acc = combine(acc, value) if tag == prev else value
            prev = tag
            append(acc)
        return out


class CountingBackend:
    """Instrumentation wrapper around a backend.

    ``calls`` counts operations invoked through the wrapper; a map or
    flatmap over several sequences counts once.
    ``elements`` accumulates, per call, the lengths of all sequence
    arguments plus the length of the result.
    """

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0
        self.elements = 0

    def _tally(self, out, seqs):
        self.calls += 1
        self.elements += sum(len(s) for s in seqs) + len(out)
        return out

    def sort(self, x, key=None):
        return self._tally(self.inner.sort(x, key=key), (x,))

    def map(self, f, *xs):
        return self._tally(self.inner.map(f, *xs), xs)

    def flatmap(self, f, *xs):
        return self._tally(self.inner.flatmap(f, *xs), xs)

    def zip(self, *xs):
        return self._tally(self.inner.zip(*xs), xs)

    def concat(self, x, y):
        return self._tally(self.inner.concat(x, y), (x, y))

    def scan(self, x, monoid):
        return self._tally(self.inner.scan(x, monoid), (x,))

    def segmented_scan(self, x, tags, monoid):
        return self._tally(self.inner.segmented_scan(x, tags, monoid), (x, tags))


def make_backend(data, queries, monoid, ranked):
    """The backend a pipeline run computes with, chosen from its input:
    two :class:`~domscan.pipeline.PointTable` objects, the monoid and the
    number of ranked dimensions.

    The numpy backend runs when numpy imports, the monoid has a vector
    form (``monoid.ufunc``: count, integer sum, min, max) and the input
    converts to numpy columns without changing any result; the rules
    are listed in :mod:`domscan.vector`. Every
    other run gets the sequential backend. numpy is imported here, on
    the first run that qualifies, never by ``import domscan``.

    The pipeline gets its backend only here, so wrapping this function
    (as the benchmark's tracer does) sees every primitive call.
    """
    if monoid.ufunc is not None and (data or queries):
        try:
            from .vector import NumpyBackend, point_columns
        except ImportError:
            return SequentialBackend()
        points = point_columns(data, queries, monoid, ranked)
        if points is not None:
            return NumpyBackend(data, queries, points)
    return SequentialBackend()
