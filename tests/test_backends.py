"""The numpy backend against the sequential one, and when each runs.

Every test here needs numpy; without it the module is skipped.
"""

import math
import random
import re
import subprocess
import sys
from operator import itemgetter
from unittest import mock

import pytest

np = pytest.importorskip("numpy")

from backends import backend_seam, run_on  # noqa: E402
from domscan import brute_force, cli, pipeline, vector  # noqa: E402
from domscan.datafiles import generate_instance, read_points, write_instance  # noqa: E402
from domscan.monoids import COUNT, FLOAT_SUM, MAX, MIN, MONOIDS, SUM  # noqa: E402
from domscan.pipeline import (  # noqa: E402
    InputError,
    PipelineConfig,
    PointTable,
    data_point,
    point_table,
    query_point,
    run,
)
from domscan.primitives import CountingBackend, Records, SequentialBackend, make_backend  # noqa: E402
from domscan.vector import Column, NumpyBackend, PointColumns, fits_int64  # noqa: E402

seq = SequentialBackend()
vec = NumpyBackend()


class Recording:
    """Backend proxy keeping every primitive call's name and result in
    ``calls``, its arguments in ``args`` and its keyword arguments in
    ``kwargs``; ``tables`` are the run's two point tables as its backend
    was built for them."""

    def __init__(self, inner, tables):
        self.inner = inner
        self.tables = tables
        self.calls = []
        self.args = []
        self.kwargs = []

    def __getattr__(self, name):
        attr = getattr(self.inner, name)
        if name.startswith("_") or not callable(attr):
            return attr

        def call(*args, **kwargs):
            out = attr(*args, **kwargs)
            self.calls.append((name, out))
            self.args.append(args)
            self.kwargs.append(kwargs)
            return out

        return call


def recorded_run(backend, data, queries, cfg, recorders=None):
    """``(results, stats, calls)`` of a run on ``backend``; ``recorders``,
    when given, receives the run's :class:`Recording`."""
    recorders = [] if recorders is None else recorders

    def make(*args, **kwargs):
        inner = SequentialBackend() if backend == "seq" else make_backend(*args, **kwargs)
        recorders.append(Recording(inner, args[:2]))
        return recorders[-1]

    with backend_seam(make):
        results, stats = run_on("numpy", data, queries, cfg)
    assert stats.backend == backend
    return results, stats, recorders[0].calls


def key_sort_at(calls):
    """Index of the key sort among recorded calls: two calls before the
    key scan, the first segmented scan after the expansion's flatmap (the
    weight gather comes between)."""
    ops = [op for op, _ in calls]
    return ops.index("segmented_scan", ops.index("flatmap")) - 2


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


def assert_numpy_domain(recording):
    """The numpy backend implements only the arguments a run passes: sort
    gets Records or point columns, and unkeyed Records only of integer
    columns; a min/max segmented scan gets integers, and concat the
    run's two tables."""
    assert recording.inner.name == "numpy"
    for (op, _), args, kwargs in zip(recording.calls, recording.args, recording.kwargs):
        if op == "sort":
            assert isinstance(args[0], (Records, PointColumns))
            if isinstance(args[0], Records) and kwargs.get("key") is None:
                assert all(vector._array(c).dtype.kind in "iu" for c in args[0].columns)
        elif op == "segmented_scan" and args[2].ufunc != "add":
            assert vector._array(args[0]).dtype.kind in "iu"
        elif op == "concat":
            assert args[0] is recording.tables[0] and args[1] is recording.tables[1]


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
        recorders = []
        vec_results, vec_stats, vec_calls = recorded_run("numpy", data, queries, cfg, recorders)
        assert_numpy_domain(recorders[0])
        assert [(r.id, repr(r.value)) for r in vec_results] == [(r.id, repr(r.value)) for r in seq_results]
        assert [op for op, _ in vec_calls] == [op for op, _ in seq_calls]
        assert vec_stats.primitive_calls == seq_stats.primitive_calls
        assert vec_stats.elements_processed == seq_stats.elements_processed
        assert vec_stats.expanded_count == seq_stats.expanded_count
        for i, ((op, s), (_, v)) in enumerate(zip(seq_calls, vec_calls)):
            assert comparable(v) == comparable(s), (m, i, op)
        # the sorted expansion is the key sort, however the expansion is staged
        at = key_sort_at(seq_calls)
        assert seq_calls[at][0] == "sort" and len(seq_calls[at][1]) == seq_stats.expanded_count
        assert list(vec_calls[at][1]) == list(seq_calls[at][1])
        # The same points read back from files, as point tables, run the same.
        write_instance(*paths, data, queries, m)
        tables = read_points(paths[0], queries=False), read_points(paths[1], queries=True)
        for backend, results, stats in (("seq", seq_results, seq_stats), ("numpy", vec_results, vec_stats)):
            recorders = []
            got, got_stats, _ = recorded_run(backend, *tables, cfg, recorders)
            if backend == "numpy":
                assert_numpy_domain(recorders[0])
            assert repr(got) == repr(results)
            assert got_stats.primitive_calls == stats.primitive_calls
            assert got_stats.elements_processed == stats.elements_processed


@pytest.mark.parametrize("variant", ["basic", "improved"])
def test_ids_past_62_bits_sort_by_lexsort_as_sequential(variant):
    # with the row index, ids this wide need more than 63 bits, so the
    # tie-order sort and the final sort cannot pack their keys
    rng = random.Random(variant)
    data, queries = generate_instance(40, 40, 2, seed=4, distribution="gridded")
    ids = rng.sample(range(2**62), 80)
    data = [data_point(ids[i], p.coords, p.weight) for i, p in enumerate(data)]
    queries = [query_point(ids[40 + i], q.coords) for i, q in enumerate(queries)]
    cfg = PipelineConfig(dims=2, monoid=SUM, variant=variant)
    seq_results, _, seq_calls = recorded_run("seq", data, queries, cfg)
    with mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
        vec_results, _, vec_calls = recorded_run("numpy", data, queries, cfg)
    assert lexsort.called
    assert [(r.id, repr(r.value)) for r in vec_results] == [(r.id, repr(r.value)) for r in seq_results]
    assert [op for op, _ in vec_calls] == [op for op, _ in seq_calls]
    for i, ((op, s), (_, v)) in enumerate(zip(seq_calls, vec_calls)):
        assert comparable(v) == comparable(s), (i, op)


def test_runs_on_seq_where_numpy_does_not_import(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("id,x1,x2,weight\n3,0.5,1e400,7\n-0,-0,+2.5,-9223372036854775808\n")
    code = (
        "import sys; sys.modules['numpy'] = None\n"
        "from domscan import SUM, PipelineConfig, brute_force, run\n"
        "from domscan.datafiles import generate_instance, read_points\n"
        "data, queries = generate_instance(30, 30, 2, seed=7)\n"
        "results, stats = run(data, queries, PipelineConfig(2, SUM))\n"
        "assert stats.backend == 'seq', stats.backend\n"
        "assert {r.id: r.value for r in results} == brute_force(data, queries, SUM)\n"
        "print('ok')\n"
        f"table = read_points({str(path)!r}, queries=False)\n"
        "assert all(type(c) is list for c in (table.ids, *table.coords, table.weights))\n"
        "print(repr(list(table)))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    table = read_points(str(path), queries=False)
    assert all(isinstance(c, Column) for c in (table.ids, *table.coords, table.weights))
    assert out.stdout.splitlines() == ["ok", repr(list(table))]


def test_tables_from_read_points_reach_numpy_without_the_list_conversion(tmp_path, monkeypatch):
    d, q = tmp_path / "d.csv", tmp_path / "q.csv"
    write_instance(str(d), str(q), *generate_instance(50, 50, 2, seed=8, distribution="gridded"), 2)
    as_array = vector._as_array
    seen = []

    def as_is(column, dtype):
        # a parsed column is used as it is, never converted from Python values
        array = as_array(column, dtype)
        if isinstance(column, Column):
            assert array is column.a
        seen.append(column)
        return array

    monkeypatch.setattr(vector, "_as_array", as_is)
    for name in ("count", "sum", "min", "max"):
        args = cli.build_parser().parse_args(["run", str(d), str(q), "--monoid", name])
        data, queries, cfg = cli._load(args)
        seen.clear()
        with mock.patch.object(vector, "_weights", wraps=vector._weights) as weights:
            results, stats = run(data, queries, cfg)
        assert stats.backend == "numpy"
        assert weights.call_args.args[0] is data.weights
        # the weights convert by the ids' rule; count's unit weights replace the
        # parsed ones with an int64 column too, so no column comes from Python values
        assert any(c is data.weights for c in seen)
        assert isinstance(data.weights, Column) and data.weights.a.dtype == np.int64
        assert all(isinstance(c, Column) for c in seen)
        assert {r.id: r.value for r in results} == brute_force(data, queries, cfg.monoid)


@pytest.mark.parametrize("monoid", [MIN, SUM])
def test_a_nan_weight_given_to_a_parsed_table_is_rejected(tmp_path, monoid):
    d, q = tmp_path / "d.csv", tmp_path / "q.csv"
    d.write_text("id,x1,weight\n1,0.5,3\n2,0.7,4\n")
    q.write_text("id,x1\n5,0.9\n")
    data = read_points(str(d), queries=False)
    assert isinstance(data.ids, Column)
    with pytest.raises(InputError, match="^point 1 has a NaN weight$"):
        run(data.reweighted([math.nan, 4]), read_points(str(q), queries=True), PipelineConfig(1, monoid))


@pytest.mark.parametrize("variant", ["basic", "improved"])
@pytest.mark.parametrize("name", ["count", "sum", "min"])
def test_runs_on_parsed_files_read_no_column_value_by_value(tmp_path, monkeypatch, name, variant):
    d, q = tmp_path / "d.csv", tmp_path / "q.csv"
    data, queries = generate_instance(80, 80, 2, seed=12, distribution="gridded")
    write_instance(str(d), str(q), data, queries, 2)
    args = cli.build_parser().parse_args(["run", str(d), str(q), "--monoid", name, "--variant", variant])

    def no_iteration(self):
        raise AssertionError("a parsed column was read value by value")

    monkeypatch.setattr(Column, "__iter__", no_iteration)
    data, queries, cfg = cli._load(args)
    assert all(isinstance(c, Column) for t in (data, queries) for c in (t.ids, *t.coords))
    assert isinstance(data.weights, Column)
    results, stats = run(data, queries, cfg)
    monkeypatch.undo()
    assert stats.backend == "numpy"
    assert {r.id: r.value for r in results} == brute_force(data, queries, cfg.monoid)


def parsed_tables(tmp_path, data_rows, query_rows):
    d, q = tmp_path / "d.csv", tmp_path / "q.csv"
    d.write_text("id,x1,weight\n" + "".join(f"{i},{x},{w}\n" for i, x, w in data_rows))
    q.write_text("id,x1\n" + "".join(f"{i},{x}\n" for i, x in query_rows))
    tables = read_points(str(d), queries=False), read_points(str(q), queries=True)
    assert all(isinstance(t.ids, Column) for t in tables)
    return tables


@pytest.mark.parametrize("monoid", [SUM, MIN])
def test_parsed_tables_name_the_first_offender_as_lists_do(tmp_path, monoid):
    cfg = PipelineConfig(1, monoid)
    # an id shared by the data and the query file
    data, queries = parsed_tables(tmp_path, [(1, 0.5, 3), (2, 0.7, 4)], [(5, 0.9), (2, 0.1)])
    with pytest.raises(InputError, match="^duplicate point id 2$"):
        run(data, queries, cfg)
    # an id repeated in the data file: 7 repeats before the query's 5 does
    data, queries = parsed_tables(tmp_path, [(5, 0.5, 3), (7, 0.7, 4), (9, 0.1, 1), (7, 0.2, 2)], [(5, 0.9)])
    with pytest.raises(InputError, match="^duplicate point id 7$"):
        run(data, queries, cfg)
    lists = point_table(list(data), False, 1), point_table(list(queries), True, 1)
    with pytest.raises(InputError, match="^duplicate point id 7$"):
        run(*lists, cfg)
    # NaN in a float column given to a parsed table
    data, queries = parsed_tables(tmp_path, [(1, 0.5, 3), (2, 0.7, 4), (3, 0.2, 1)], [(5, 0.9)])
    with pytest.raises(InputError, match="^point 2 has a NaN weight$"):
        run(data.reweighted(Column(np.array([1.5, math.nan, math.nan]))), queries, cfg)
    nan_coords = PointTable(data.ids, [Column(np.array([0.5, 0.1, math.nan]))], data.weights, False)
    with pytest.raises(InputError, match="^point 3 has a NaN coordinate$"):
        run(nan_coords, queries, cfg)


def test_columns_answer_the_input_checks_from_their_arrays():
    ints, floats = Column(np.array([3, 1, 2])), Column(np.array([0.5, math.nan]))
    assert not ints.has_nan() and floats.has_nan() and not Column(np.array([0.5])).has_nan()
    assert not ints.has_float() and floats.has_float() and not Column(np.zeros(0)).has_float()
    assert not ints.repeats(Column(np.array([4, 5]))) and ints.repeats(Column(np.array([4, 2])))
    assert Column(np.array([1, 1])).repeats(Column(np.zeros(0, dtype=np.int64)))
    # a coded column has no answer of its own; the pipeline scans its values
    coded = Column(np.array([0, 1]), decode=[math.nan, 2.5])
    assert coded.has_nan() is None and coded.has_float() is None and coded.repeats(ints) is None
    assert pipeline._has_nan(coded) and pipeline.has_float(coded)
    assert not pipeline._has_nan(Column(np.array([1, 0]), decode=[0.5, 2.5]))
    # nor do ids beside anything but an integer Column of their dtype; the
    # pipeline's walk then names the first repeated id, or finds none
    data = PointTable(ints, [Column(np.zeros(3))], [1, 1, 1], False)
    others = (([7, 3], 3), ([7.5], None), (Column(np.array([2.0])), "2.0"), (Column(np.array([1], np.int32)), 1))
    for other, repeated in others:
        assert ints.repeats(other) is None
        queries = PointTable(other, [[0.5] * len(other)], [None] * len(other), True)
        if repeated is None:
            pipeline._validate(data, queries)
        else:
            with pytest.raises(InputError, match=f"^duplicate point id {re.escape(str(repeated))}$"):
                pipeline._validate(data, queries)


def test_int_sum_weights_past_the_int64_bound_run_on_seq():
    # peak·len(weights) >= 2**63: fits_int64 would refuse the run, so _weights does
    query = [query_point(9, (1.0,))]
    for weights in ([2**62, 2**62], [2**62, 1], [-(2**63), 5]):
        column = Column(np.array(weights, dtype=np.int64))
        assert vector._weights(column, 1, SUM) is None
        data = PointTable([0, 1], [[0.1, 0.2]], column, False)
        results, stats = run(data, query, PipelineConfig(1, SUM))
        assert stats.backend == "seq"
        assert repr({r.id: r.value for r in results}) == repr(brute_force(data, query, SUM))
    for weights, magnitude in (([-3, 4], 7), ([], 0)):
        got = vector._weights(Column(np.array(weights, dtype=np.int64)), 2, SUM)
        assert got[1] == magnitude and type(got[1]) is int


def test_empty_columns_and_records_are_falsy_and_unhashable():
    for empty in (Column(np.zeros(0)), Records(([], [])), pipeline.QueryResults([], [])):
        assert not empty
        with pytest.raises(TypeError):
            hash(empty)
    assert Column(np.array([0])) and Records(([1], [2])) and pipeline.QueryResults([1], [2])


@pytest.mark.parametrize("monoid", [COUNT, SUM, MIN, MAX])
def test_a_numpy_parsed_data_file_runs_with_a_python_parsed_query_file(tmp_path, monoid):
    d, q = tmp_path / "d.csv", tmp_path / "q.csv"
    data, queries = generate_instance(60, 40, 2, seed=9, distribution="gridded")
    write_instance(str(d), str(q), data, queries, 2)
    # an id written 1_0 is read by Python, not by numpy
    q.write_text(q.read_text().replace(f"\n{queries[0].id},", f"\n{'_'.join(str(queries[0].id))},", 1))
    tables = read_points(str(d), queries=False), read_points(str(q), queries=True)
    assert isinstance(tables[0].ids, Column) and type(tables[1].ids) is list
    assert [p.id for p in tables[1]] == [p.id for p in queries]
    cfg = PipelineConfig(2, monoid)
    got, stats = run_on("numpy", *tables, cfg)
    want, _ = run_on("seq", *tables, cfg)
    assert stats.backend == "numpy"
    assert repr(got) == repr(want)


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
    # records of (float, bool, index) sorted by a key of the first two
    # fields: the ranking sort, queries (False) first on ties
    flags = [rng.random() < 0.5 for _ in range(300)]
    want = seq.sort(seq.zip(floats, flags, range(300)), key=itemgetter(0, 1))
    got = vec.sort(vec.zip(floats, np.array(flags), range(300)), key=itemgetter(0, 1))
    assert [tuple(map(repr, r)) for r in got] == [tuple(map(repr, r)) for r in want]
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


def test_sum_weight_bound_reads_the_runs_rank_count():
    # 2,000 data points and 2 queries: 2,002 distinct values a dimension
    # would need widths 11 and n * 11 * 11 * sum(|w|) passes 2**63, but the
    # run has 3 ranks a dimension, widths 2 and n * 2 * 2 * sum(|w|) < 2**63
    data = [data_point(i, (i / 2000, i / 2000), 2**38) for i in range(2000)]
    queries = [query_point(2000, (0.5, 0.5)), query_point(2001, (2.0, 2.0))]
    assert not fits_int64([11, 11], 2002, 2000 * 2**38)
    assert backend_for(data, queries, SUM) == "numpy"
    cfg = PipelineConfig(2, SUM)
    got, stats = run_on("numpy", data, queries, cfg)
    assert stats.backend == "numpy" and stats.widths == (2, 2)
    assert repr(got) == repr(run_on("seq", data, queries, cfg)[0])
    assert [r.value for r in got] == [1000 * 2**38, 2000 * 2**38]


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


@pytest.mark.parametrize(
    "weight, backend",
    [(2**53, "numpy"), (-(2**53), "numpy"), (2**53 + 1, "seq"), (-(2**53) - 1, "seq"), (2**60, "seq")],
)
def test_min_max_integer_weights_run_on_numpy_within_2_to_the_53(tmp_path, weight, backend):
    # one rule for a list of ints and a parsed int64 column: |w| <= 2**53 is exact in float64
    data = [data_point(0, (0.5, 0.5), weight), data_point(1, (0.25, 0.75), 3), data_point(2, (0.75, 0.25), -2)]
    queries = [query_point(5, (1.0, 1.0)), query_point(6, (0.6, 0.6)), query_point(7, (0.1, 0.1))]
    paths = str(tmp_path / "d.csv"), str(tmp_path / "q.csv")
    write_instance(*paths, data, queries, 2)
    parsed = read_points(paths[0], queries=False), read_points(paths[1], queries=True)
    assert isinstance(parsed[0].weights, Column) and parsed[0].weights.a.dtype == np.int64
    for monoid in (MIN, MAX):
        for variant in ("basic", "improved"):
            cfg = PipelineConfig(2, monoid, variant)
            want, _ = run_on("seq", data, queries, cfg)
            assert want[1].value == weight  # query 6 dominates point 0 alone
            for tables in ((data, queries), parsed):
                got, stats = run_on("numpy", *tables, cfg)
                assert stats.backend == backend
                assert repr(got) == repr(want)


@pytest.mark.parametrize("variant", ["basic", "improved"])
def test_regroup_scan_widens_partials_the_regroup_sort_narrowed(variant):
    # Sum(|w|) passes 2**31, so the weights are int64; the regroup sort reads
    # the partials back at the width of their range, int32 here in the basic
    # variant. Data and queries alternate, so the last query has rank 4 of 4,
    # bits 11: its fold is two partials, 2.1e9 and 1.2e9, each below 2**31,
    # whose total is not.
    weights = [1_000_000_000, 1_100_000_000, 1_200_000_000]
    data = [data_point(i, (x,), w) for i, (x, w) in enumerate(zip((0.0, 0.2, 0.4), weights))]
    queries = [query_point(10 + i, (x,)) for i, x in enumerate((0.1, 0.3, 0.5))]
    cfg = PipelineConfig(1, SUM, variant)
    want, _, _ = recorded_run("seq", data, queries, cfg)
    got, _, calls = recorded_run("numpy", data, queries, cfg)
    assert [r.value for r in want] == [1_000_000_000, 2_100_000_000, 3_300_000_000]
    assert repr(got) == repr(want)
    regroup_sort = calls[-4]
    assert regroup_sort[0] == "sort"
    if variant == "basic":
        partials = regroup_sort[1].columns[1].a
        assert partials.dtype == np.int32
        assert partials.max() < 2**31 < partials.sum()


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
    rows = vec.zip([2, 1, 2, 1], [10, 13, 12, 11])
    assert vec.sort(rows) == [(1, 13), (1, 11), (2, 10), (2, 12)] == seq.sort(seq.zip(*rows.columns))
    floats = vec.zip([0.5, -1.0, 0.5], range(3))
    assert vec.sort(floats) == seq.sort(seq.zip([0.5, -1.0, 0.5], range(3)))
    assert vec.map(lambda a, b: a + b, [1, 2], [3, 4]) == [4, 6]
    # concat takes only the run's two tables, and gives back their columns
    data, queries = point_table([data_point(0, (1.0,), 2)], False, 1), point_table([], True, 1)
    points = vector.point_columns(data, queries, SUM, 1)
    backend = NumpyBackend(data, queries, points)
    assert isinstance(points, PointColumns) and backend.concat(data, queries) is points
    for x, y in (([1], [2, 3]), (queries, data), (data, point_table([], True, 1))):
        with pytest.raises(TypeError):
            backend.concat(x, y)
    assert vec.scan([1, 2, 3], SUM) == [1, 3, 6]
    with pytest.raises(ValueError, match="lengths"):
        vec.zip([1], [1, 2])
    with pytest.raises(ValueError, match="lengths"):
        vec.segmented_scan([1, 2], [0], SUM)


def test_numpy_backend_without_tables_concats_nothing():
    # CPython shares the empty tuple, so () and () must not pass for the run's tables
    for backend in (NumpyBackend(), vec):
        for x, y in (((), ()), (None, None), ([], [])):
            with pytest.raises(TypeError):
                backend.concat(x, y)


@pytest.mark.parametrize("variant", ["basic", "improved"])
def test_numpy_sort_of_points_already_in_tie_order(variant):
    rng = random.Random(variant)
    data, queries = generate_instance(40, 40, 2, seed=13, distribution="gridded")
    data = [data_point(p.id, p.coords, rng.randint(-5, 5)) for p in data]
    tables = point_table(data, False, 2), point_table(queries, True, 2)
    key = pipeline._tie_order(variant == "improved")
    want = seq.sort(seq.concat(*tables), key=key)
    rows = [(p.id, list(p.coords), 0 if p.is_query else p.weight, p.is_query) for p in want]

    def rows_of(points):
        return list(zip(points.id.tolist(), points.coords.T.tolist(), list(points.weight), points.is_query.tolist()))

    position = {p.id: i for i, p in enumerate(seq.concat(*tables))}
    order = [position[p.id] for p in want]
    points = vector.point_columns(*tables, SUM, 2)
    in_order = points[np.array(order)]
    assert rows_of(in_order) == rows
    # already in order: given back as it is, without a gather
    assert vec.sort(in_order, key=key) is in_order
    order[10], order[11] = order[11], order[10]
    assert rows_of(vec.sort(points[np.array(order)], key=key)) == rows
    assert rows_of(vec.sort(points, key=key)) == rows


def test_numpy_segmented_scan_matches_sequential():
    rng = random.Random(8)
    for _ in range(200):
        n = rng.randint(1, 40)
        tags = sorted(rng.randrange(6) for _ in range(n))
        ints = [rng.randint(-9, 9) for _ in range(n)]
        floats = [rng.choice((-2.5, 0.0, 1.0, math.inf)) for _ in range(n)]
        for monoid in (SUM, MIN, MAX):
            assert vec.segmented_scan(ints, tags, monoid) == seq.segmented_scan(ints, tags, monoid)
        # a run scans min/max weights as integer codes; a float column is refused, not truncated
        for monoid in (MIN, MAX):
            with pytest.raises(TypeError):
                vec.segmented_scan(floats, tags, monoid)


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
    # ranks separate only data from queries, about n/4 of them per dimension
    # here, so d=4 needs 150 points a role for widths of 7 and 32 key bits
    n = 150 if dims == 4 else 40
    data, queries = generate_instance(n, n, dims, seed=2)
    cfg = PipelineConfig(dims=dims, monoid=SUM, variant="basic")
    seq_results, _, _ = recorded_run("seq", data, queries, cfg)
    results, stats, calls = recorded_run("numpy", data, queries, cfg)
    assert [(r.id, repr(r.value)) for r in results] == [(r.id, repr(r.value)) for r in seq_results]
    assert (sum(w + 1 for w in stats.widths) <= 31) == narrow_key
    ops = [op for op, _ in calls]
    expansion = calls[ops.index("flatmap")][1]
    key_sort = calls[key_sort_at(calls)][1]
    for records in (expansion, key_sort):
        assert len(records) == stats.expanded_count
        key, point = records.columns
        assert key.a.dtype == (np.int32 if narrow_key else np.int64)
        assert point.a.dtype == np.int32  # a point index always fits 31 bits


@pytest.mark.parametrize("variant", ["basic", "improved"])
@pytest.mark.parametrize("backend", ["seq", "numpy"])
def test_regrouped_count_is_the_regroup_sorts_input(backend, variant):
    rng = random.Random(backend + variant)
    data, queries = generate_instance(60, 60, 3, seed=11, distribution="gridded")
    data = [data_point(p.id, p.coords, rng.randint(1, 9)) for p in data]
    for monoid in (COUNT, SUM, MIN, MAX):
        cfg = PipelineConfig(dims=3, monoid=monoid, variant=variant)
        _, stats, calls = recorded_run(backend, data, queries, cfg)
        ops = [op for op, _ in calls]
        # weight gather, key scan, filter, regroup sort, regroup scan, selection, final sort
        assert ops[-7:] == ["map", "segmented_scan", "flatmap", "sort", "segmented_scan", "flatmap", "sort"]
        gathered, partials, kept, regrouped = (list(out) for _, out in calls[-7:-3])
        assert len(kept) == len(regrouped) == stats.regrouped_count
        # no data weight is the unit here, so the rows weighing the unit are the query rows
        want = [p for w, p in zip(gathered, partials) if w == monoid.unit and p != monoid.unit]
        assert 0 < len(want) == stats.regrouped_count < stats.expanded_count
        assert [p for _, p in kept] == want
