"""The numpy backend against the sequential one, and when each runs.

Every test here needs numpy; without it the module is skipped.
"""

import math
import random
import subprocess
import sys
from unittest import mock

import pytest

np = pytest.importorskip("numpy")

from backends import backend_seam, run_on  # noqa: E402
from domscan import vector  # noqa: E402
from domscan.datafiles import generate_instance, read_points, write_instance  # noqa: E402
from domscan.monoids import COUNT, FLOAT_SUM, MAX, MIN, MONOIDS, SUM  # noqa: E402
from domscan.pipeline import PipelineConfig, data_point, point_table, query_point  # noqa: E402
from domscan.primitives import CountingBackend, Records, SequentialBackend, make_backend  # noqa: E402
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


def public_ops(cls):
    return {name for name, attr in vars(cls).items() if callable(attr) and not name.startswith("_")}


def test_the_contract_is_what_the_chain_calls():
    contract = public_ops(SequentialBackend)
    assert public_ops(CountingBackend) == contract
    assert public_ops(NumpyBackend) == contract
    data, queries = generate_instance(30, 30, 2, seed=5)
    for variant in ("basic", "improved"):
        cfg = PipelineConfig(dims=2, monoid=SUM, variant=variant)
        for backend in ("seq", "numpy"):
            _, _, calls = recorded_run(backend, data, queries, cfg)
            assert {op for op, _ in calls} == contract, (variant, backend)


def comparable(out):
    # Point sequences (the concatenated input and its tie-ordered copy)
    # differ in form between the backends; every other result reads as a
    # list of Python values.
    if isinstance(out, PointColumns) or (isinstance(out, list) and out and hasattr(out[0], "coords")):
        return None
    return list(out)


def edge_instances(rng):
    """Instances whose rank tables are unusual: in the first, every data
    point is below every query in dimension 1, so each rank there occurs
    for one role only; in the second every coordinate is equal, so every
    width is 1."""
    data = [data_point(i, (rng.randrange(3) / 10, rng.randrange(3) / 10), 1) for i in range(30)]
    queries = [query_point(100 + i, (0.5 + rng.randrange(3) / 10, rng.randrange(3) / 10)) for i in range(30)]
    yield 2, data, queries
    yield 2, [data_point(i, (0.5, 0.5), 1) for i in range(20)], [query_point(50 + i, (0.5, 0.5)) for i in range(20)]


@pytest.mark.parametrize("variant", ["basic", "improved"])
@pytest.mark.parametrize("name", ["count", "sum", "min", "max"])
def test_numpy_matches_sequential_call_by_call(variant, name, tmp_path):
    monoid = MONOIDS[name]
    paths = str(tmp_path / "d.csv"), str(tmp_path / "q.csv")
    rng = random.Random(name + variant)
    instances = [
        (m, *generate_instance(40, 40, m, seed=rng.randrange(1000), distribution="gridded"))
        for m in (1, 2, 3, 4)
    ]
    for m, data, queries in [*instances, *edge_instances(rng)]:
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
        # the sorted expansion is the key sort, two calls before the key scan
        # (the weight gather comes between), however the expansion is staged
        at = [op for op, _ in seq_calls].index("segmented_scan") - 2
        assert seq_calls[at][0] == "sort" and len(seq_calls[at][1]) == seq_stats.expanded_count
        assert list(vec_calls[at][1]) == list(seq_calls[at][1])
        # The same points read back from files, as point tables, run the same.
        write_instance(*paths, data, queries, m)
        tables = read_points(paths[0], queries=False), read_points(paths[1], queries=True)
        for backend, results, stats in (("seq", seq_results, seq_stats), ("numpy", vec_results, vec_stats)):
            got, got_stats, _ = recorded_run(backend, *tables, cfg)
            assert repr(got) == repr(results)
            assert got_stats.primitive_calls == stats.primitive_calls
            assert got_stats.elements_processed == stats.elements_processed


def test_numpy_code_tables_hold_one_row_per_rank_and_role():
    rng = random.Random(3)
    data = [data_point(i, (rng.randrange(3), rng.randrange(3), rng.randrange(3)), 1) for i in range(1000)]
    queries = [query_point(1000 + i, (rng.randrange(3), rng.randrange(3), rng.randrange(3))) for i in range(1000)]
    with mock.patch.object(vector, "expand", wraps=vector.expand) as expand:
        _, stats = run_on("numpy", data, queries, PipelineConfig(3, SUM, "basic"))
    assert stats.backend == "numpy" and stats.widths == (2, 2, 2)
    expansion = expand.call_args.args[0]
    for d, (codes, counts, starts) in enumerate(vector._code_arrays(expansion)):
        pairs = {(r, q) for r, q in zip(expansion.ranks[d], expansion.dq.is_query.tolist())}
        assert len(pairs) <= 6 and len(codes) <= len(pairs) * expansion.widths[d]
        # each point reads its own (rank, role) code list, as the sequential kernel builds it
        lists = [codes.tolist()[s : s + c] for s, c in zip(starts.tolist(), counts.tolist())]
        assert lists == expansion.tables[d]


def test_numpy_sort_on_float_keys_is_the_sequential_stable_order():
    rng = random.Random(6)
    floats = [rng.choice((-0.0, 0.0, 0.5, -1.5, math.inf, -math.inf, 2.0)) for _ in range(300)]
    want = seq.sort(seq.zip(floats, range(300)))
    got = vec.sort(vec.zip(floats, range(300)))
    assert [tuple(map(repr, r)) for r in got] == [tuple(map(repr, r)) for r in want]
    assert list(map(repr, vec.sort(floats))) == list(map(repr, seq.sort(floats)))
    # point columns sorted by a float key, then an int one: the improved tie order
    points = [query_point(i, (f,)) if i % 3 else data_point(i, (f,), 1) for i, f in enumerate(floats)]
    is_query = np.array([p.is_query for p in points])
    columns = PointColumns(np.arange(300), np.array([floats]), Column(np.zeros(300, dtype=np.int64)), is_query)
    key = lambda p: (p.coords[-1], 1 - p.is_query, p.id)  # noqa: E731
    assert vec.sort(columns, key=key).id.tolist() == [p.id for p in seq.sort(points, key=key)]


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
    dims = len((data or queries)[0].coords)
    tables = point_table(data, False, dims), point_table(queries, True, dims)
    return make_backend(*tables, monoid, dims if ranked is None else ranked).name


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
    # ids equal to an int but of another type keep their type on either backend
    cfg = PipelineConfig(2, SUM, "improved")
    for data_id, query_id in ((1.0, 5.0), (0, True)):
        data, queries = [data_point(data_id, (0.1, 0.2), 3)], [query_point(query_id, (0.5, 0.5))]
        assert backend_for(data, queries, SUM) == "seq"
        got, want = (run_on(b, data, queries, cfg)[0] for b in ("numpy", "seq"))
        assert repr(got) == repr(want)
        assert type(got[0].id) is type(query_id)


def test_import_does_not_load_numpy():
    code = "import sys, domscan, domscan.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_numpy_primitives_follow_the_contract():
    assert vec.sort([3, 1, 2]) == [1, 2, 3]
    rows = vec.zip([2, 1, 2, 1], [10, 13, 12, 11])
    assert vec.sort(rows) == [(1, 13), (1, 11), (2, 10), (2, 12)] == seq.sort(seq.zip(*rows.columns))
    floats = vec.zip([0.5, -1.0, 0.5], range(3))
    assert vec.sort(floats) == seq.sort(seq.zip([0.5, -1.0, 0.5], range(3)))
    assert vec.map(lambda a, b: a + b, [1, 2], [3, 4]) == [4, 6]
    assert vec.concat([1], [2, 3]) == [1, 2, 3]
    assert vec.scan([1, 2, 3], SUM) == [1, 3, 6]
    assert vec.exclusive_scan([1, 2, 3], SUM) == [0, 1, 3]
    assert vec.exclusive_scan([1.0, 2.0, 3.0], MAX) == [-math.inf, 1.0, 2.0]
    assert vec.exclusive_scan([], MAX) == []
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
        # the kernel's whole-column form returns all of its records at once
        n = np.repeat(a.a, a.a)
        k = np.arange(len(n)) - np.repeat(np.cumsum(a.a) - a.a, a.a)
        return Records((Column(n), Column(k)))

    pairs.columns = pair_columns
    xs = [2, 0, 3, 1]
    assert vec.flatmap(pairs, xs) == seq.flatmap(pairs, xs)


def test_columns_read_as_python_values():
    col = Column(np.array([2, 0, 1]), decode=["a", "b", "c"])
    assert list(col) == ["c", "a", "b"] and col[0] == "c"
    assert len(col) == 3 and bool(col) and not Column(np.zeros(0))
    picked = col[np.array([1, 1])]
    assert isinstance(picked, Column) and picked.decode is col.decode
    assert picked == ["a", "a"]
    assert type(Column(np.array([5]))[0]) is int


def test_scans_of_int32_columns_sum_in_int64():
    # prefix sums pass 2**31, where an int32 accumulator would wrap
    values = [2**30 + k for k in range(5)] + [-(2**30), 7, 2**30 - 1]
    column = Column(np.array(values, dtype=np.int32))
    tags = [0, 0, 1, 1, 1, 1, 2, 2]
    assert vec.scan(column, SUM) == seq.scan(values, SUM)
    assert vec.exclusive_scan(column, SUM) == seq.exclusive_scan(values, SUM)
    assert vec.exclusive_scan(column, MAX) == seq.exclusive_scan(values, MAX)
    for monoid in (SUM, MIN, MAX):
        assert vec.segmented_scan(column, tags, monoid) == seq.segmented_scan(values, tags, monoid)


def test_pack_widens_int32_columns_before_offset_and_shift():
    low, high = -(2**31), 2**31 - 1
    extremes = np.array([high, low, 0, low, high, -1], dtype=np.int32)
    small = np.array([5, 0, 7, 2, 1, 3], dtype=np.int32)
    signed = np.array([-(2**20), 9, 2**20, 0, -3, 4], dtype=np.int64)
    packed, fields = vector._pack([extremes, small, signed])
    assert [width for _, _, width in fields] == [32, 3, 22]
    for column, field in zip((extremes, small, signed), fields):
        assert vector._unpack(packed, field).tolist() == column.tolist()
    # mixed int32 keys and int64 payloads sort on the packed path, as seq sorts them
    rng = random.Random(11)
    keys = [rng.choice((low, high, 0, -5)) for _ in range(200)]
    payload = [rng.randint(-(2**20), 2**20) for _ in range(200)]
    columns = [Column(np.array(keys, dtype=np.int32)), Column(np.array(payload, dtype=np.int64))]
    assert vector._pack([columns[0].a, vector._row_index(200), columns[1].a]) is not None
    assert vec.sort(Records(columns)) == seq.sort(seq.zip(keys, payload))


@pytest.mark.parametrize("dims, narrow_key", [(3, True), (4, False)])
def test_expanded_columns_are_int32_where_keys_fit_31_bits(dims, narrow_key):
    data, queries = generate_instance(40, 40, dims, seed=2)
    cfg = PipelineConfig(dims=dims, monoid=SUM, variant="basic")
    seq_results, _, _ = recorded_run("seq", data, queries, cfg)
    results, stats, calls = recorded_run("numpy", data, queries, cfg)
    assert [(r.id, repr(r.value)) for r in results] == [(r.id, repr(r.value)) for r in seq_results]
    assert (sum(w + 1 for w in stats.widths) <= 31) == narrow_key
    ops = [op for op, _ in calls]
    expansion = calls[ops.index("flatmap")][1]
    key_sort = calls[ops.index("segmented_scan") - 2][1]
    for records in (expansion, key_sort):
        assert len(records) == stats.expanded_count
        key, point = records.columns
        assert key.a.dtype == (np.int32 if narrow_key else np.int64)
        assert point.a.dtype == np.int32  # a point index always fits 31 bits
