"""The chunked backend must reproduce the reference backend element-wise."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domscan.monoids import FLOAT_SUM, MAX, MIN, SUM
from domscan.primitives import ParallelBackend, SequentialBackend

seq = SequentialBackend()

int_lists = st.lists(st.integers(min_value=-1000, max_value=1000), max_size=80)
nonempty_int_lists = st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=80)


@pytest.fixture(scope="module")
def par():
    # min_chunk=2 forces real chunking even on tiny inputs
    backend = ParallelBackend(threads=3, min_chunk=2)
    yield backend
    backend.close()


@given(int_lists)
@settings(max_examples=50)
def test_map_flatmap_zip_match(par, xs):
    assert par.map(lambda n: n * 2, xs) == seq.map(lambda n: n * 2, xs)
    assert par.flatmap(lambda n: [n, -n], xs) == seq.flatmap(lambda n: [n, -n], xs)
    ys = [n + 1 for n in xs]
    assert par.zip(xs, ys) == seq.zip(xs, ys)
    assert par.map(lambda a, c: a + c, xs, ys) == seq.map(lambda a, c: a + c, xs, ys)


@given(int_lists)
@settings(max_examples=50)
def test_sort_matches(par, xs):
    assert par.sort(xs) == seq.sort(xs)
    assert par.sort(xs, reverse=True) == seq.sort(xs, reverse=True)
    pairs = [(n % 5, i) for i, n in enumerate(xs)]
    assert par.sort(pairs) == seq.sort(pairs)
    assert par.sort(pairs, key=lambda p: p[1]) == seq.sort(pairs, key=lambda p: p[1])


@given(int_lists)
@settings(max_examples=50)
def test_scans_match(par, xs):
    for monoid in (SUM, MAX, MIN):
        assert par.scan(xs, monoid) == seq.scan(xs, monoid)
        assert par.exclusive_scan(xs, monoid) == seq.exclusive_scan(xs, monoid)
    assert par.shift(xs) == seq.shift(xs)
    assert par.broadcast_max(xs) == seq.broadcast_max(xs)


@given(nonempty_int_lists, st.data())
@settings(max_examples=50)
def test_segmented_ops_match(par, xs, data):
    tags = sorted(
        data.draw(st.lists(st.integers(0, 5), min_size=len(xs), max_size=len(xs)))
    )
    for monoid in (SUM, MAX, MIN):
        assert par.segmented_scan(xs, tags, monoid) == seq.segmented_scan(xs, tags, monoid)


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), max_size=80))
@settings(max_examples=50)
def test_float_scan_within_tolerance(par, xs):
    got = par.scan(xs, FLOAT_SUM)
    want = seq.scan(xs, FLOAT_SUM)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert math.isclose(g, w, rel_tol=1e-9, abs_tol=1e-6)


def test_parallel_is_repeatable(par):
    xs = list(range(97, 0, -1))
    assert par.sort(xs) == par.sort(xs)
    assert par.scan(xs, SUM) == par.scan(xs, SUM)


def test_segment_spanning_many_chunks(par):
    # one giant run plus tiny runs at both ends stresses carry handling
    xs = list(range(1, 41))
    tags = [0] + [1] * 38 + [2]
    assert par.segmented_scan(xs, tags, SUM) == seq.segmented_scan(xs, tags, SUM)


def test_length_validation_matches_sequential(par):
    with pytest.raises(ValueError):
        par.zip([1], [1, 2])
    with pytest.raises(ValueError):
        par.segmented_scan([1, 2], [0], SUM)


def test_default_chunking_leaves_small_inputs_sequential():
    with ParallelBackend(threads=4) as backend:
        assert backend._bounds(100) is None
        assert backend._bounds(100_000) is not None


def test_threads_must_be_positive():
    with pytest.raises(ValueError):
        ParallelBackend(threads=0)
