"""The numpy backend against the sequential one, and when each runs.

Every test here needs numpy; without it the module is skipped.
"""

import math
import random
import subprocess
import sys

import pytest

np = pytest.importorskip("numpy")

from backends import backend_seam, run_on  # noqa: E402
from domscan.datafiles import generate_instance, read_points, write_instance  # noqa: E402
from domscan.monoids import COUNT, FLOAT_SUM, MAX, MIN, MONOIDS, SUM  # noqa: E402
from domscan.pipeline import PipelineConfig, data_point, query_point  # noqa: E402
from domscan.primitives import Records, SequentialBackend, make_backend  # noqa: E402
from domscan.vector import Column, NumpyBackend, PointColumns, fits_int64  # noqa: E402

seq = SequentialBackend()
vec = NumpyBackend()


class Recording:
    """Backend proxy keeping every primitive call's name and result."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def __getattr__(self, name):
        attr = getattr(self.inner, name)
        if name.startswith("_") or not callable(attr):
            return attr

        def call(*args, **kwargs):
            out = attr(*args, **kwargs)
            self.calls.append((name, out))
            return out

        return call


def recorded_run(backend, data, queries, cfg):
    recorders = []

    def make(*args, **kwargs):
        inner = SequentialBackend() if backend == "seq" else make_backend(*args, **kwargs)
        recorders.append(Recording(inner))
        return recorders[-1]

    with backend_seam(make):
        results, stats = run_on("numpy", data, queries, cfg)
    assert stats.backend == backend
    return results, stats, recorders[0].calls


def comparable(out):
    # Point sequences (the concatenated input and its tie-ordered copy)
    # differ in form between the backends; every other result reads as a
    # list of Python values.
    if isinstance(out, PointColumns) or (isinstance(out, list) and out and hasattr(out[0], "coords")):
        return None
    return list(out)


@pytest.mark.parametrize("variant", ["basic", "improved"])
@pytest.mark.parametrize("name", ["count", "sum", "min", "max"])
def test_numpy_matches_sequential_call_by_call(variant, name, tmp_path):
    monoid = MONOIDS[name]
    paths = str(tmp_path / "d.csv"), str(tmp_path / "q.csv")
    rng = random.Random(name + variant)
    for m in (1, 2, 3, 4):
        data, queries = generate_instance(40, 40, m, seed=rng.randrange(1000), distribution="gridded")
        data = [data_point(p.id, p.coords, rng.randint(-50, 50)) for p in data]
        cfg = PipelineConfig(dims=m, monoid=monoid, variant=variant)
        seq_results, seq_stats, seq_calls = recorded_run("seq", data, queries, cfg)
        vec_results, vec_stats, vec_calls = recorded_run("numpy", data, queries, cfg)
        assert [(r.id, repr(r.value)) for r in vec_results] == [(r.id, repr(r.value)) for r in seq_results]
        assert [op for op, _ in vec_calls] == [op for op, _ in seq_calls]
        assert vec_stats.primitive_calls == seq_stats.primitive_calls
        assert vec_stats.elements_processed == seq_stats.elements_processed
        assert vec_stats.expanded_count == seq_stats.expanded_count
        for i, ((op, s), (_, v)) in enumerate(zip(seq_calls, vec_calls)):
            assert comparable(v) == comparable(s), (m, i, op)
        # the sorted expansion is the sort right after the expansion flatmap
        at = [op for op, _ in seq_calls].index("flatmap") + 1
        assert list(vec_calls[at][1]) == list(seq_calls[at][1])
        # The same points read back from files, as point tables, run the same.
        write_instance(*paths, data, queries, m)
        tables = read_points(paths[0], queries=False), read_points(paths[1], queries=True)
        for backend, results, stats in (("seq", seq_results, seq_stats), ("numpy", vec_results, vec_stats)):
            got, got_stats, _ = recorded_run(backend, *tables, cfg)
            assert repr(got) == repr(results)
            assert got_stats.primitive_calls == stats.primitive_calls
            assert got_stats.elements_processed == stats.elements_processed


def test_min_max_results_are_the_original_weight_objects():
    data = [data_point(0, (1.0, 1.0), 7), data_point(1, (2.0, 2.0), 3), data_point(2, (0.0, 5.0), 9)]
    queries = [query_point(5, (3.0, 3.0)), query_point(6, (0.5, 0.5)), query_point(7, (1.5, 9.0))]
    for monoid, want in ((MIN, {5: 3, 6: math.inf, 7: 7}), (MAX, {5: 7, 6: -math.inf, 7: 9})):
        for variant in ("basic", "improved"):
            res, stats = run_on("numpy", data, queries, PipelineConfig(2, monoid, variant))
            assert stats.backend == "numpy"
            assert {r.id: r.value for r in res} == want
            assert [type(r.value) for r in res] == [type(want[r.id]) for r in res]
            assert repr(res[1].value) == repr(monoid.unit)


def test_numpy_runs_the_same_float_min_as_sequential():
    rng = random.Random(4)
    data, queries = generate_instance(60, 60, 3, seed=4)
    data = [data_point(p.id, p.coords, rng.choice((0.5, 0.0, 2.25, -1.5, math.inf))) for p in data]
    for monoid in (MIN, MAX):
        cfg = PipelineConfig(3, monoid, "improved")
        outs = [run_on(b, data, queries, cfg) for b in ("seq", "numpy")]
        assert [s.backend for _, s in outs] == ["seq", "numpy"]
        assert [(r.id, repr(r.value)) for r in outs[0][0]] == [(r.id, repr(r.value)) for r in outs[1][0]]


def backend_for(data, queries, monoid, ranked=None):
    ranked = len((data or queries)[0].coords) if ranked is None else ranked
    return make_backend(data, queries, monoid, ranked).name


def small_instance(weight=1, coord=0.5):
    return [data_point(0, (coord, 1.0), weight)], [query_point(1, (2.0**60, 2.0))]


def test_float_sum_falls_back():
    data, queries = small_instance(weight=1.5)
    assert backend_for(data, queries, FLOAT_SUM) == "seq"
    data, queries = small_instance(weight=2)
    assert backend_for(data, queries, FLOAT_SUM) == "seq"
    assert backend_for(data, queries, SUM) == "numpy"


def test_int_sum_weight_bound():
    # 2 points, widths (1, 1): the bound is 2 * 1 * 1 * |w| < 2**63
    data, queries = small_instance(weight=2**62 - 1)
    assert backend_for(data, queries, SUM) == "numpy"
    data, queries = small_instance(weight=2**62)
    assert backend_for(data, queries, SUM) == "seq"
    data, queries = small_instance(weight=-(2**62))
    assert backend_for(data, queries, SUM) == "seq"
    res, stats = run_on("numpy", data, queries, PipelineConfig(2, SUM))
    assert stats.backend == "seq" and res[0].value == -(2**62)


def test_coordinate_must_round_trip_through_float64():
    data, queries = small_instance(coord=2**53)
    assert backend_for(data, queries, COUNT) == "numpy"
    data, queries = small_instance(coord=2**53 + 1)
    assert backend_for(data, queries, COUNT) == "seq"
    for variant in ("basic", "improved"):
        # 2**53 + 1 and 2**53 are distinct here, but equal as float64
        data = [data_point(0, (2**53,), 1), data_point(1, (0,), 1)]
        queries = [query_point(2, (2**53 + 1,))]
        res, stats = run_on("numpy", data, queries, PipelineConfig(1, COUNT, variant))
        assert stats.backend == "seq" and res[0].value == 2


def test_key_width_predicate():
    assert fits_int64([31, 30], 2, 1)  # 32 + 31 = 63 bits
    assert not fits_int64([31, 31], 2, 1)  # 64 bits
    assert fits_int64([62], 2, 1) and not fits_int64([63], 2, 1)
    assert fits_int64([], 1, 2**62)
    assert not fits_int64([], 2, 2**62)


@pytest.mark.parametrize(
    "weights",
    [
        [1, 2.5],  # an int and a float: 3 and 3.0 would tie with different reprs
        [0.0, -0.0],
        [2**53 + 1, 1],
        [math.nan, 1.0],
        [True, 2],
    ],
)
def test_min_max_weights_numpy_cannot_reproduce_fall_back(weights):
    data = [data_point(i, (float(i), float(i)), w) for i, w in enumerate(weights)]
    queries = [query_point(10, (9.0, 9.0))]
    for monoid in (MIN, MAX):
        assert backend_for(data, queries, monoid) == "seq"


def test_non_integer_ids_fall_back():
    data = [data_point("a", (1.0,), 1)]
    assert backend_for(data, [query_point("b", (2.0,))], COUNT) == "seq"
    assert backend_for([data_point(2**63, (1.0,), 1)], [], COUNT) == "seq"


def test_import_does_not_load_numpy():
    code = "import sys, domscan, domscan.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_numpy_primitives_follow_the_contract():
    assert vec.sort([3, 1, 2]) == [1, 2, 3]
    assert vec.sort([1, 3, 2], reverse=True) == [3, 2, 1]
    rows = vec.zip([2, 1, 2, 1], [10, 13, 12, 11])
    assert vec.sort(rows) == [(1, 13), (1, 11), (2, 10), (2, 12)] == seq.sort(seq.zip(*rows.columns))
    assert vec.sort(rows, reverse=True) == [(2, 10), (2, 12), (1, 13), (1, 11)]
    floats = vec.zip([0.5, -1.0, 0.5], range(3))
    assert vec.sort(floats) == seq.sort(seq.zip([0.5, -1.0, 0.5], range(3)))
    assert vec.map(lambda a, b: a + b, [1, 2], [3, 4]) == [4, 6]
    assert vec.concat([1], [2, 3]) == [1, 2, 3]
    assert vec.scan([1, 2, 3], SUM) == [1, 3, 6]
    assert vec.exclusive_scan([1, 2, 3], SUM) == [0, 1, 3]
    assert vec.shift([1.0, 2.0, 3.0]) == [-math.inf, 1.0, 2.0]
    assert vec.shift([]) == []
    assert vec.broadcast_max([3, 1, 2]) == [3, 3, 3]
    with pytest.raises(ValueError, match="lengths"):
        vec.zip([1], [1, 2])
    with pytest.raises(ValueError, match="lengths"):
        vec.segmented_scan([1, 2], [0], SUM)


def test_numpy_segmented_scan_matches_sequential():
    rng = random.Random(8)
    for _ in range(200):
        n = rng.randint(1, 40)
        tags = sorted(rng.randrange(6) for _ in range(n))
        ints = [rng.randint(-9, 9) for _ in range(n)]
        floats = [rng.choice((-2.5, 0.0, 1.0, math.inf)) for _ in range(n)]
        for values, monoids in ((ints, (SUM, MIN, MAX)), (floats, (MIN, MAX))):
            for monoid in monoids:
                got = vec.segmented_scan(values, tags, monoid)
                assert got == seq.segmented_scan(values, tags, monoid)


def test_numpy_flatmap_repeats_and_indexes():
    def pairs(n):
        return [(n, k) for k in range(n)]

    def pair_columns(a):
        return a.a, lambda src, k: Records((a.a[src], k))

    pairs.columns = pair_columns
    xs = [2, 0, 3, 1]
    assert vec.flatmap(pairs, xs) == seq.flatmap(pairs, xs)


def test_columns_read_as_python_values():
    col = Column(np.array([2, 0, 1]), decode=["a", "b", "c"])
    assert list(col) == ["c", "a", "b"] and col[0] == "c"
    assert len(col) == 3 and bool(col) and not Column(np.zeros(0))
    assert col.take(np.array([1, 1])) == ["a", "a"]
    assert type(Column(np.array([5]))[0]) is int
