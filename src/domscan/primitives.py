"""Data-parallel operations over immutable ordered sequences.

Sequences are plain Python lists (or other sized, sliceable iterables
such as ranges). Operations never mutate their inputs and always return
fresh lists; callers are expected to treat every sequence as immutable.
Two sequences are equal exactly when they have the same length and
pairwise-equal elements.

:class:`SequentialBackend` implements the contract with one
left-to-right pass per operation. Sorting is stable: ties under ``key``
keep their input order.

``map`` and ``flatmap`` follow the builtin ``map`` convention: passing
several sequences applies the function to aligned elements, which is
the zip-then-map (and zip-then-flatmap) combination.
"""

from __future__ import annotations

from itertools import accumulate, chain, groupby, islice
from operator import itemgetter, ne

from .monoids import MAX, Monoid

_tag_of = itemgetter(0)
_val_of = itemgetter(1)
_NO_TAG = object()  # compares unequal to every real tag


def _check_lengths(seqs) -> None:
    lengths = [len(s) for s in seqs]
    if len(set(lengths)) > 1:
        raise ValueError(f"sequences have different lengths: {lengths}")


class SequentialBackend:
    """Every operation is a single sequential pass."""

    def sort(self, x, key=None, reverse=False):
        """Sorted copy of ``x``; nondecreasing under ``key`` (or the
        elements' natural order), nonincreasing with ``reverse``."""
        return sorted(x, key=key, reverse=reverse)

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
        per aligned element tuple), in input order."""
        if len(xs) > 1:
            _check_lengths(xs)
        return list(chain.from_iterable(map(f, *xs)))

    def zip(self, *xs):
        """Tuples of aligned elements; all inputs must have equal length."""
        _check_lengths(xs)
        return list(zip(*xs))

    def concat(self, x, y):
        """Elements of ``x`` followed by elements of ``y``."""
        return list(x) + list(y)

    def scan(self, x, monoid: Monoid):
        """Inclusive prefix aggregation: element i is the combine of
        x[0..i]. The last element equals the full fold."""
        return list(accumulate(x, monoid.combine))

    def exclusive_scan(self, x, monoid: Monoid):
        """Exclusive prefix aggregation: element i is the combine of the
        unit and x[0..i-1]; element 0 is the unit."""
        return list(islice(accumulate(x, monoid.combine, initial=monoid.unit), len(x)))

    def shift(self, x):
        """Right shift of a nondecreasing numeric sequence, realized as an
        exclusive max-scan: [-inf, x[0], ..., x[n-2]]."""
        return self.exclusive_scan(x, MAX)

    def broadcast_max(self, x):
        """Every position holds max(x): descending sort, then max-scan.

        >>> SequentialBackend().broadcast_max([3, 1, 2])
        [3, 3, 3]
        """
        return self.scan(self.sort(x, reverse=True), MAX)

    def segmented_scan(self, x, tags, monoid: Monoid):
        """Inclusive scan restarted at every change of tag.

        ``tags`` must be sorted (equal tags contiguous) and as long as
        ``x``; each maximal run of equal tags is scanned independently.

        Two interchangeable strategies: a fused per-element loop, and
        per-run accumulation whose inner loop runs in C but pays a setup
        cost per run. A cheap run census picks whichever fits the
        segment shape.
        """
        if len(x) != len(tags):
            raise ValueError(f"sequences have different lengths: [{len(x)}, {len(tags)}]")
        n = len(x)
        if n == 0:
            return []
        combine = monoid.combine
        runs = 1 + sum(map(ne, islice(tags, 1, None), tags))
        if runs * 8 >= n:
            out: list = []
            append = out.append
            prev = _NO_TAG
            acc = None
            for tag, value in zip(tags, x):
                acc = combine(acc, value) if tag == prev else value
                prev = tag
                append(acc)
            return out
        out = []
        emit = out.extend
        for _, run in groupby(zip(tags, x), key=_tag_of):
            emit(accumulate(map(_val_of, run), combine))
        return out


class CountingBackend:
    """Instrumentation wrapper around a backend.

    ``calls`` counts operations invoked through the wrapper; composite
    operations (shift, broadcast_max, multi-sequence map) count once.
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

    def sort(self, x, key=None, reverse=False):
        return self._tally(self.inner.sort(x, key=key, reverse=reverse), (x,))

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

    def exclusive_scan(self, x, monoid):
        return self._tally(self.inner.exclusive_scan(x, monoid), (x,))

    def shift(self, x):
        return self._tally(self.inner.shift(x), (x,))

    def broadcast_max(self, x):
        return self._tally(self.inner.broadcast_max(x), (x,))

    def segmented_scan(self, x, tags, monoid):
        return self._tally(self.inner.segmented_scan(x, tags, monoid), (x, tags))


def make_backend():
    """The backend a pipeline run computes with. The pipeline gets its
    backend only here, so wrapping this function (as the benchmark's
    tracer does) sees every primitive call."""
    return SequentialBackend()
