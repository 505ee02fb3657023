"""Data-parallel operations over immutable ordered sequences.

Sequences are plain Python lists (or other sized, sliceable iterables
such as ranges). Operations never mutate their inputs and always return
fresh lists; callers are expected to treat every sequence as immutable.
Two sequences are equal exactly when they have the same length and
pairwise-equal elements.

Two backends implement the same deterministic contract:

* :class:`SequentialBackend` is the reference: one left-to-right pass
  per operation.
* :class:`ParallelBackend` partitions inputs into contiguous chunks
  processed on a thread pool and recombines them (two-phase scans,
  chunk sort plus merge). For discrete element types its results are
  element-wise identical to the sequential backend; for floating-point
  aggregation the recombination may round differently, and equality is
  defined by the monoid's tolerance.

Sorting determinism: ties under ``key`` are resolved by the stable sort
order in the sequential backend, but chunked sorting has no global
notion of input order. Callers that need identical output from both
backends must supply a key that is total (for example by embedding a
unique identifier), or sort elements that are themselves totally
ordered.

``map`` and ``flatmap`` follow the builtin ``map`` convention: passing
several sequences applies the function to aligned elements, which is
the zip-then-map (and zip-then-flatmap) combination.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from functools import reduce
from itertools import accumulate, chain, groupby, islice
from operator import itemgetter, ne
from typing import Any

from .monoids import MAX, Monoid

_tag_of = itemgetter(0)
_val_of = itemgetter(1)
_NO_TAG = object()  # compares unequal to every real tag


def _check_lengths(seqs) -> None:
    lengths = [len(s) for s in seqs]
    if len(set(lengths)) > 1:
        raise ValueError(f"sequences have different lengths: {lengths}")


class SequentialBackend:
    """Reference backend; every operation is a single sequential pass."""

    name = "seq"

    def close(self) -> None:
        """Release backend resources (nothing to do here)."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

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



def _map_chunk(args):
    f, parts = args
    return list(map(f, *parts))


def _flatmap_chunk(args):
    f, parts = args
    return list(chain.from_iterable(map(f, *parts)))


def _sort_chunk(args):
    chunk, key, reverse = args
    return sorted(chunk, key=key, reverse=reverse)


def _scan_chunk(args):
    chunk, combine = args
    return list(accumulate(chunk, combine))


def _fold_chunk(args):
    chunk, combine = args
    return reduce(combine, chunk)


def _offset_chunk(args):
    chunk, combine, offset = args
    return [combine(offset, v) for v in chunk]


def _exclusive_chunk(args):
    chunk, combine, offset = args
    return list(islice(accumulate(chunk, combine, initial=offset), len(chunk)))


def _segscan_chunk(args):
    values, tags, backend, monoid = args
    return backend.segmented_scan(values, tags, monoid)


class ParallelBackend(SequentialBackend):
    """Chunked backend running on a thread pool.

    Inputs are partitioned into contiguous chunks, one task per chunk.
    Scans use the standard two-phase scheme: chunk-local scan, exclusive
    scan of the chunk totals, then offset application. Sorting sorts
    chunks concurrently and merges the sorted runs. Calls that cannot
    fill at least two chunks of ``min_chunk`` elements fall back to the
    sequential paths; the default is sized so that task dispatch is
    amortized against a meaningful amount of per-chunk work.

    On CPython the pool buys structure rather than speedup for
    pure-Python element functions (the interpreter lock serializes
    them); the point of this backend is the deterministic chunked
    contract, exercised and verified against the reference backend.
    """

    name = "par"

    def __init__(self, threads: int | None = None, min_chunk: int = 32768):
        if threads is not None and threads < 1:
            raise ValueError("threads must be positive")
        self.threads = threads or os.cpu_count() or 1
        self.min_chunk = max(1, min_chunk)
        self._pool: ThreadPoolExecutor | None = None

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def _bounds(self, n: int) -> list[tuple[int, int]] | None:
        pieces = min(self.threads, n // self.min_chunk)
        if pieces < 2:
            return None
        base, extra = divmod(n, pieces)
        bounds = []
        lo = 0
        for i in range(pieces):
            hi = lo + base + (1 if i < extra else 0)
            bounds.append((lo, hi))
            lo = hi
        return bounds

    def _pool_map(self, fn, argses):
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.threads, thread_name_prefix="domscan"
            )
        return list(self._pool.map(fn, argses))

    def _gather(self, parts):
        out: list = []
        for part in parts:
            out.extend(part)
        return out

    def map(self, f, *xs):
        if len(xs) > 1:
            _check_lengths(xs)
        bounds = self._bounds(len(xs[0]))
        if bounds is None:
            return super().map(f, *xs)
        jobs = [(f, [x[lo:hi] for x in xs]) for lo, hi in bounds]
        return self._gather(self._pool_map(_map_chunk, jobs))

    def flatmap(self, f, *xs):
        if len(xs) > 1:
            _check_lengths(xs)
        bounds = self._bounds(len(xs[0]))
        if bounds is None:
            return super().flatmap(f, *xs)
        jobs = [(f, [x[lo:hi] for x in xs]) for lo, hi in bounds]
        return self._gather(self._pool_map(_flatmap_chunk, jobs))

    def sort(self, x, key=None, reverse=False):
        bounds = self._bounds(len(x))
        if bounds is None:
            return super().sort(x, key=key, reverse=reverse)
        runs = self._pool_map(_sort_chunk, [(x[lo:hi], key, reverse) for lo, hi in bounds])
        # list.sort is an adaptive mergesort: sorting the concatenation of
        # presorted runs is the merge step, done in C.
        merged = self._gather(runs)
        merged.sort(key=key, reverse=reverse)
        return merged

    def scan(self, x, monoid: Monoid):
        bounds = self._bounds(len(x))
        if bounds is None:
            return super().scan(x, monoid)
        combine = monoid.combine
        locals_ = self._pool_map(_scan_chunk, [(x[lo:hi], combine) for lo, hi in bounds])
        offsets = []
        running = monoid.unit
        for part in locals_:
            offsets.append(running)
            running = combine(running, part[-1])
        jobs = [
            (part, combine, off)
            for part, off in zip(locals_[1:], offsets[1:])
        ]
        adjusted = self._pool_map(_offset_chunk, jobs)
        # first chunk needs no offset; skipping the combine keeps it
        # bitwise identical to the sequential result
        return self._gather([locals_[0], *adjusted])

    def exclusive_scan(self, x, monoid: Monoid):
        bounds = self._bounds(len(x))
        if bounds is None:
            return super().exclusive_scan(x, monoid)
        combine = monoid.combine
        chunks = [x[lo:hi] for lo, hi in bounds]
        totals = self._pool_map(_fold_chunk, [(c, combine) for c in chunks])
        offsets = []
        running = monoid.unit
        for total in totals:
            offsets.append(running)
            running = combine(running, total)
        jobs = [(c, combine, off) for c, off in zip(chunks, offsets)]
        return self._gather(self._pool_map(_exclusive_chunk, jobs))

    def segmented_scan(self, x, tags, monoid: Monoid):
        if len(x) != len(tags):
            raise ValueError(f"sequences have different lengths: [{len(x)}, {len(tags)}]")
        bounds = self._bounds(len(x))
        if bounds is None:
            return super().segmented_scan(x, tags, monoid)
        combine = monoid.combine
        seq = SequentialBackend()
        tag_chunks = [tags[lo:hi] for lo, hi in bounds]
        locals_ = self._pool_map(
            _segscan_chunk,
            [(x[lo:hi], tc, seq, monoid) for (lo, hi), tc in zip(bounds, tag_chunks)],
        )
        # Carry the value of each chunk's trailing run into the next
        # chunk's leading run when the tag continues across the boundary.
        carries: list[Any] = [None] * len(bounds)
        carry_tag = carry_val = None
        for j, (tc, part) in enumerate(zip(tag_chunks, locals_)):
            incoming = carry_val if (j > 0 and carry_tag == tc[0]) else None
            carries[j] = incoming
            last = part[-1]
            if incoming is not None and tc[0] == tc[-1]:
                last = combine(incoming, last)
            carry_tag, carry_val = tc[-1], last
        out: list = []
        for tc, part, incoming in zip(tag_chunks, locals_, carries):
            if incoming is None:
                out.extend(part)
                continue
            first_tag = tc[0]
            head = 0
            while head < len(tc) and tc[head] == first_tag:
                head += 1
            out.extend(combine(incoming, v) for v in part[:head])
            out.extend(part[head:])
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

    def close(self) -> None:
        self.inner.close()

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


def make_backend(name: str, threads: int | None = None):
    """Backend instance for a configuration name ("seq" or "par")."""
    if name == "seq":
        return SequentialBackend()
    if name == "par":
        return ParallelBackend(threads=threads)
    raise ValueError(f"unknown backend {name!r}")
