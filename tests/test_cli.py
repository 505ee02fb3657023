import json
import math
import random
import subprocess
import sys
from pathlib import Path

import pytest

import domscan.cli
import domscan.datafiles
import domscan.primitives
from backends import HAVE_NUMPY, backend_seam
from domscan.cli import EXIT_INPUT, EXIT_INTERNAL, EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, main
from domscan.datafiles import read_points
from domscan.monoids import FLOAT_SUM

DATA_DIR = Path(__file__).parent / "data"
FIXTURE = [str(DATA_DIR / "dom2d_data.csv"), str(DATA_DIR / "dom2d_queries.csv")]
EXPECTED = (DATA_DIR / "dom2d_expected.csv").read_bytes()


def test_run_reproduces_golden_output(tmp_path):
    out = tmp_path / "out.csv"
    assert main(["run", *FIXTURE, "--output", str(out)]) == EXIT_OK
    assert out.read_bytes() == EXPECTED


def test_run_to_stdout(capsys):
    assert main(["run", *FIXTURE]) == EXIT_OK
    assert capsys.readouterr().out == EXPECTED.decode()


def test_run_and_verify_without_numpy(tmp_path):
    # the Python parser, the sequential backend and the one formatting path, end to end
    out = tmp_path / "out.csv"
    code = (
        "import sys; sys.modules['numpy'] = None\n"
        "from domscan.cli import main\n"
        f"assert main(['run', *{FIXTURE!r}, '--output', {str(out)!r}]) == 0\n"
        f"sys.exit(main(['verify', *{FIXTURE!r}, '--expected', {str(DATA_DIR / 'dom2d_expected.csv')!r}]))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == EXIT_OK, done.stderr
    assert "verified 3 queries" in done.stdout
    assert out.read_bytes() == EXPECTED


@pytest.mark.parametrize("variant", ["basic", "improved"])
def test_verify_fixture(variant, capsys):
    code = main(["verify", *FIXTURE, "--variant", variant, "--expected", str(DATA_DIR / "dom2d_expected.csv")])
    assert code == EXIT_OK
    assert "verified 3 queries" in capsys.readouterr().out


def test_verify_detects_corrupted_expected_file(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("3,1\n4,2\n5,3\n")
    assert main(["verify", *FIXTURE, "--expected", str(bad)]) == EXIT_MISMATCH
    assert "mismatch at line 2" in capsys.readouterr().out


def test_run_stats_report(tmp_path):
    out = tmp_path / "out.csv"
    stats = tmp_path / "stats.json"
    assert main(["run", *FIXTURE, "--output", str(out), "--stats", str(stats)]) == EXIT_OK
    report = json.loads(stats.read_text())
    assert report["results_written"] == 3
    assert report["stats"]["data_count"] == 3
    assert report["stats"]["expanded_count"] >= 3
    assert 0 < report["stats"]["regrouped_count"] < report["stats"]["expanded_count"]
    assert report["stats"]["widths"] == [2, 2]
    bound = (report["stats"]["data_count"] + report["stats"]["query_count"]) * 2 * 2
    assert report["stats"]["expansion_vs_bound"] == report["stats"]["expanded_count"] / bound
    assert report["variant"] == "basic" and report["monoid"] == "count"
    assert report["backend"] == ("numpy" if HAVE_NUMPY else "seq")
    assert report["peak_rss_mb"] > 0
    assert set(report["phases"]) >= {"load_seconds", "compute_seconds", "write_seconds"}
    # an empty run has no bound to compare against
    d, q = tmp_path / "d.csv", tmp_path / "q.csv"
    d.write_text("id,x1,x2,weight\n")
    q.write_text("id,x1,x2\n")
    assert main(["run", str(d), str(q), "--output", str(out), "--stats", str(stats)]) == EXIT_OK
    assert json.loads(stats.read_text())["stats"]["expansion_vs_bound"] == 0.0
    assert json.loads(stats.read_text())["stats"]["regrouped_count"] == 0


def test_run_stats_report_names_the_fallback_backend(tmp_path, capsys):
    d, q = _float_weight_instance(tmp_path)
    stats = tmp_path / "stats.json"
    assert main(["run", d, q, "--monoid", "sum", "--stats", str(stats)]) == EXIT_OK
    report = json.loads(stats.read_text())
    assert report["monoid"] == "fsum" and report["backend"] == "seq"


def _last_stderr_line(capsys):
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    return err.strip()


def test_run_output_into_missing_directory(tmp_path, capsys):
    out = tmp_path / "missing" / "out.csv"
    assert main(["run", *FIXTURE, "--output", str(out)]) == EXIT_INPUT
    assert _last_stderr_line(capsys) == f"domscan: {out}: cannot write: No such file or directory"


def test_run_stats_into_missing_directory(tmp_path, capsys):
    out, stats = tmp_path / "out.csv", tmp_path / "missing" / "s.json"
    assert main(["run", *FIXTURE, "--output", str(out), "--stats", str(stats)]) == EXIT_INPUT
    assert _last_stderr_line(capsys) == f"domscan: {stats}: cannot write: No such file or directory"


def test_gen_data_into_missing_directory(tmp_path, capsys):
    data = tmp_path / "missing" / "d.csv"
    args = ["gen", "--n", "3", "--q", "3", "--data", str(data), "--queries", str(tmp_path / "q.csv")]
    assert main(args) == EXIT_INPUT
    assert _last_stderr_line(capsys) == f"domscan: {data}: cannot write: No such file or directory"


def test_gen_data_and_queries_into_one_file(tmp_path, capsys):
    same = tmp_path / "same.csv"
    args = ["gen", "--n", "3", "--q", "2", "--data", str(same), "--queries", f"{tmp_path}/./same.csv"]
    assert main(args) == EXIT_INPUT
    assert _last_stderr_line(capsys) == f"domscan: --data and --queries name the same file: {same}"
    assert not same.exists()


def test_run_output_and_stats_into_one_file(tmp_path, capsys):
    same = tmp_path / "same.json"
    args = ["run", *FIXTURE, "--output", str(same), "--stats", f"{tmp_path}/./same.json"]
    assert main(args) == EXIT_INPUT
    assert _last_stderr_line(capsys) == f"domscan: --output and --stats name the same file: {same}"
    assert not same.exists()


def test_internal_error_is_not_an_input_error(capsys):
    class Broken(domscan.primitives.SequentialBackend):
        def segmented_scan(self, x, tags, monoid):
            raise ValueError("sequences have different lengths: [3, 2]")

    with backend_seam(lambda *args, **kwargs: Broken()):
        assert main(["run", *FIXTURE]) == EXIT_INTERNAL
    assert _last_stderr_line(capsys) == (
        "domscan: internal error: ValueError: sequences have different lengths: [3, 2]"
    )


def test_rows_that_parse_one_at_a_time_but_not_together_are_an_internal_error(capsys, monkeypatch):
    parse_rows = domscan.datafiles._parse_rows

    def whole_file_fails(rows, *args):
        if len(rows) > 1:
            raise ValueError("rows disagree")
        return parse_rows(rows, *args)

    monkeypatch.setattr(domscan.datafiles, "_parse_arrays", lambda *args: None)
    monkeypatch.setattr(domscan.datafiles, "_parse_rows", whole_file_fails)
    assert main(["run", *FIXTURE]) == EXIT_INTERNAL
    assert _last_stderr_line(capsys) == (
        f"domscan: internal error: RuntimeError: {FIXTURE[0]}: the rows parse one at a time but not together"
    )


def test_gen_is_deterministic(tmp_path):
    a1, q1 = tmp_path / "a1.csv", tmp_path / "q1.csv"
    a2, q2 = tmp_path / "a2.csv", tmp_path / "q2.csv"
    args = ["gen", "--n", "10", "--q", "10", "--dim", "2", "--seed", "42"]
    assert main([*args, "--data", str(a1), "--queries", str(q1)]) == EXIT_OK
    assert main([*args, "--data", str(a2), "--queries", str(q2)]) == EXIT_OK
    assert a1.read_bytes() == a2.read_bytes()
    assert q1.read_bytes() == q2.read_bytes()


def test_gen_empty_data_file(tmp_path):
    d, q = tmp_path / "d.csv", tmp_path / "q.csv"
    assert main(["gen", "--n", "0", "--q", "5", "--dim", "2", "--seed", "1",
                 "--data", str(d), "--queries", str(q)]) == EXIT_OK
    assert d.read_text() == "id,x1,x2,weight\n"
    assert len(q.read_text().splitlines()) == 6


def test_gen_gridded_repeats_coordinates(tmp_path):
    d, q = tmp_path / "d.csv", tmp_path / "q.csv"
    assert main(["gen", "--n", "40", "--q", "5", "--dim", "2", "--seed", "3",
                 "--distribution", "gridded", "--data", str(d), "--queries", str(q)]) == EXIT_OK
    coords = [line.split(",")[1] for line in d.read_text().splitlines()[1:]]
    assert len(set(coords)) < len(coords)


def test_round_trip_row_count(tmp_path):
    d, q, out = tmp_path / "d.csv", tmp_path / "q.csv", tmp_path / "out.csv"
    assert main(["gen", "--n", "30", "--q", "17", "--dim", "3", "--seed", "9",
                 "--data", str(d), "--queries", str(q)]) == EXIT_OK
    assert main(["run", str(d), str(q), "--output", str(out)]) == EXIT_OK
    assert len(out.read_text().splitlines()) == 17


def test_verify_random_sweep(tmp_path):
    # 100 seeds spread across dimensions, variants and monoids
    combos = [
        (m, variant, monoid)
        for m in (1, 2, 3, 4)
        for variant in ("basic", "improved")
        for monoid in ("count", "sum", "min", "max")
    ]
    for seed in range(100):
        m, variant, monoid = combos[seed % len(combos)]
        d, q = tmp_path / f"d{seed}.csv", tmp_path / f"q{seed}.csv"
        assert main(["gen", "--n", "25", "--q", "25", "--dim", str(m), "--seed", str(seed),
                     "--data", str(d), "--queries", str(q)]) == EXIT_OK
        code = main(["verify", str(d), str(q), "--variant", variant, "--monoid", monoid])
        assert code == EXIT_OK, (seed, m, variant, monoid)


def _float_weight_instance(tmp_path):
    rng = random.Random(5)
    d, q = tmp_path / "d.csv", tmp_path / "q.csv"
    d.write_text("id,x1,x2,weight\n" + "".join(
        f"{i},{rng.random()!r},{rng.random()!r},{rng.random() * 100!r}\n" for i in range(300)
    ))
    q.write_text("id,x1,x2\n" + "".join(
        f"{1000 + i},{rng.random()!r},{rng.random()!r}\n" for i in range(300)
    ))
    return str(d), str(q)


@pytest.mark.parametrize("variant", ["basic", "improved"])
def test_verify_sum_of_float_weights(tmp_path, capsys, variant):
    files = _float_weight_instance(tmp_path)
    assert main(["verify", *files, "--monoid", "sum", "--variant", variant]) == EXIT_OK
    assert "verified 300 queries" in capsys.readouterr().out


def test_run_sum_of_float_weights_prints_unit_as_zero(tmp_path, capsys):
    d, q = tmp_path / "d.csv", tmp_path / "q.csv"
    d.write_text("id,x1,weight\n0,1,2.5\n1,2,1\n")
    q.write_text("id,x1\n5,0\n6,3\n")
    assert main(["run", str(d), str(q), "--monoid", "sum"]) == EXIT_OK
    assert capsys.readouterr().out == "5,0\n6,3.5\n"


def _huge_weight_instance(tmp_path):
    """A float weight next to an integer weight past float range; query 5
    dominates nothing, 6 both points, 7 the float-weighted one."""
    d, q = tmp_path / "d.csv", tmp_path / "q.csv"
    d.write_text(f"id,x1,weight\n0,1,1.5\n1,2,{10**400}\n")
    q.write_text("id,x1\n5,0\n6,3\n7,1.5\n")
    return str(d), str(q)


def test_sum_of_float_and_out_of_range_int_weights_is_an_input_error(tmp_path, capsys):
    files = _huge_weight_instance(tmp_path)
    message = "domscan: point 1: integer weights too large to sum with float weights\n"
    for command in ("run", "verify"):
        assert main([command, *files, "--monoid", "sum"]) == EXIT_INPUT
        assert capsys.readouterr().err == message
    # integer weights that each convert to float but whose sum does not
    d, q = tmp_path / "d2.csv", tmp_path / "q2.csv"
    d.write_text(f"id,x1,weight\n0,1,{2**1023}\n1,2,{2**1023}\n2,3,1.5\n")
    q.write_text("id,x1\n5,9\n")
    assert main(["run", str(d), str(q), "--monoid", "sum"]) == EXIT_INPUT
    assert capsys.readouterr().err == message
    # max compares without adding, so it answers exactly
    assert main(["run", *files, "--monoid", "max"]) == EXIT_OK
    assert capsys.readouterr().out == f"5,-inf\n6,{10**400}\n7,1.5\n"
    assert main(["verify", *files, "--monoid", "max"]) == EXIT_OK


def test_integers_past_the_digit_limit_are_read_and_printed_exactly(tmp_path, capsys):
    """Python reads and writes ints of at most 4,300 digits as text;
    weights and answers past that stay exact, never ``+inf``."""
    d, q = tmp_path / "d.csv", tmp_path / "q.csv"
    d.write_text(f"id,x1,weight\n0,1,{'1' + '0' * 5000}\n1,2,3\n")
    q.write_text("id,x1\n5,3\n6,0\n")
    for monoid, answer in (("max", f"5,1{'0' * 5000}\n6,-inf\n"), ("sum", f"5,1{'0' * 4999}3\n6,0\n")):
        assert main(["run", str(d), str(q), "--monoid", monoid]) == EXIT_OK
        assert capsys.readouterr().out == answer
        assert main(["verify", str(d), str(q), "--monoid", monoid]) == EXIT_OK
        assert capsys.readouterr().out == "verified 2 queries\n"
    # two weights that each parse, with a sum one digit longer than the limit
    d.write_text(f"id,x1,weight\n0,1,{'9' * 4300}\n1,2,{'9' * 4300}\n")
    q.write_text("id,x1\n5,3\n")
    out, expected = tmp_path / "out.csv", tmp_path / "expected.csv"
    assert main(["run", str(d), str(q), "--monoid", "sum", "--output", str(out)]) == EXIT_OK
    assert out.read_text() == f"5,1{'9' * 4299}8\n"
    expected.write_text(f"5,1{'9' * 4299}8\n")
    assert main(["verify", str(d), str(q), "--monoid", "sum", "--expected", str(expected)]) == EXIT_OK
    assert capsys.readouterr().out == "verified 1 queries\n"
    expected.write_text(f"5,1{'9' * 4299}7\n")
    assert main(["verify", str(d), str(q), "--monoid", "sum", "--expected", str(expected)]) == EXIT_MISMATCH
    assert capsys.readouterr().out.startswith("mismatch at line 1: pipeline '5,1999")


@pytest.mark.skipif(not HAVE_NUMPY, reason="needs numpy's parse of the weights into int64")
@pytest.mark.parametrize(
    "weights, backend",
    [
        ((-(2**63), 2**53 + 1, 2**63 - 1), "seq"),  # |-2**63| and the sum wrap in int64
        ((-(2**53), 2**53, 5), "numpy"),
    ],
)
def test_int64_weights_are_checked_without_wrapping(tmp_path, weights, backend):
    from domscan.vector import Column

    d, q = tmp_path / "d.csv", tmp_path / "q.csv"
    d.write_text("id,x1,weight\n" + "".join(f"{i},{i},{w}\n" for i, w in enumerate(weights)))
    q.write_text("id,x1\n7,5\n8,1.5\n")
    for monoid in ("sum", "min", "max"):
        args = domscan.cli.build_parser().parse_args(["run", str(d), str(q), "--monoid", monoid])
        data, queries, cfg = domscan.cli._load(args)
        assert isinstance(data.weights, Column) and data.weights.a.dtype == "int64"
        got, stats = domscan.cli.run(data, queries, cfg)
        with backend_seam(lambda *args: domscan.primitives.SequentialBackend()):
            want, _ = domscan.cli.run(data, queries, cfg)
        assert repr(got) == repr(want) and stats.backend == backend


def test_verify_mismatch_prints_integers_past_the_digit_limit(tmp_path, capsys, monkeypatch):
    d, q = tmp_path / "d.csv", tmp_path / "q.csv"
    d.write_text(f"id,x1,weight\n0,1,{'9' * 4300}\n1,2,{'9' * 4300}\n")
    q.write_text("id,x1\n5,3\n")
    monkeypatch.setattr(domscan.cli, "brute_force", lambda *args: {5: 1})
    assert main(["verify", str(d), str(q), "--monoid", "sum"]) == EXIT_MISMATCH
    first, summary = capsys.readouterr().out.splitlines()
    assert first == f"mismatch at query 5: pipeline 1{'9' * 4299}8, reference 1 (sum, compared exactly)"
    assert summary == "1 of 1 queries mismatch; worst relative error inf at query 5; first mismatching ids: 5"


def test_id_past_the_digit_limit_is_too_long(tmp_path, capsys):
    d, q = tmp_path / "d.csv", tmp_path / "q.csv"
    d.write_text(f"id,x1\n{'1' * 5000},1\n")
    q.write_text(f"id,x1\n5,3\n\n-{'9' * 4301},2\n")
    assert main(["run", str(d), str(q)]) == EXIT_INPUT
    assert _last_stderr_line(capsys) == f"domscan: {d}: line 2: id too long: more than 4300 digits"
    d.write_text(f"id,x1\n{'9' * 4300},1\n")
    assert main(["run", str(d), str(q)]) == EXIT_INPUT
    assert _last_stderr_line(capsys) == f"domscan: {q}: line 4: id too long: more than 4300 digits"


def test_verify_reports_errors_past_float_range_as_infinite(tmp_path, capsys, monkeypatch):
    files = _huge_weight_instance(tmp_path)
    monkeypatch.setattr(domscan.cli, "brute_force", lambda *args: {5: -math.inf, 6: 1, 7: 10**400})
    assert main(["verify", *files, "--monoid", "max"]) == EXIT_MISMATCH
    first, summary = capsys.readouterr().out.splitlines()
    assert first == f"mismatch at query 6: pipeline {10**400}, reference 1 (max, compared exactly)"
    assert summary == "2 of 3 queries mismatch; worst relative error inf at query 6; first mismatching ids: 6, 7"
    assert domscan.cli._relative_error(10**400, 1) == math.inf
    assert domscan.cli._relative_error(1.5, 10**400) == math.inf


def test_verify_mismatch_reports_exact_values_and_tolerance(tmp_path, capsys, monkeypatch):
    brute_force = domscan.cli.brute_force
    monkeypatch.setattr(
        domscan.cli,
        "brute_force",
        lambda *args: {k: v + 1e-3 for k, v in brute_force(*args).items()},
    )
    d, q = _float_weight_instance(tmp_path)
    assert main(["verify", d, q, "--monoid", "sum"]) == EXIT_MISMATCH
    data, queries = read_points(d, queries=False), read_points(q, queries=True)
    want = brute_force(data, queries, FLOAT_SUM)[1000] + 1e-3
    first, summary = capsys.readouterr().out.splitlines()
    assert first.startswith("mismatch at query 1000: pipeline ")
    assert first.endswith(f", reference {want!r} (fsum, compared within tolerance 1e-09)")
    # a query that dominates nothing: pipeline 0.0 against 0.001
    assert summary.startswith("300 of 300 queries mismatch; worst relative error 1 at query ")
    assert summary.endswith("; first mismatching ids: 1000, 1001, 1002, 1003, 1004")
    assert main(["verify", *FIXTURE, "--monoid", "sum"]) == EXIT_MISMATCH
    assert capsys.readouterr().out == (
        "mismatch at query 3: pipeline 1, reference 1.001 (sum, compared exactly)\n"
        "3 of 3 queries mismatch; worst relative error 0.000999 at query 3;"
        " first mismatching ids: 3, 4, 5\n"
    )


def test_verify_reports_every_mismatch(tmp_path, capsys, monkeypatch):
    d, q = tmp_path / "d.csv", tmp_path / "q.csv"
    assert main(["gen", "--n", "40", "--q", "40", "--seed", "3", "--data", str(d), "--queries", str(q)]) == EXIT_OK
    brute_force = domscan.cli.brute_force
    wrong = {}

    def corrupted(*args):
        expected = brute_force(*args)
        for i, qid in enumerate(sorted(expected)):
            if i % 6 == 1:  # 7 of 40: every sixth query from the second on
                wrong[qid] = expected[qid]
                expected[qid] = 2 * expected[qid] if expected[qid] else 10
        return expected

    monkeypatch.setattr(domscan.cli, "brute_force", corrupted)
    for variant in ("basic", "improved"):
        wrong.clear()
        assert main(["verify", str(d), str(q), "--monoid", "sum", "--variant", variant]) == EXIT_MISMATCH
        lines = capsys.readouterr().out.splitlines()
        ids = sorted(wrong)
        first = ids[0]
        assert lines[0] == f"mismatch at query {first}: pipeline {wrong[first]}, reference {2 * wrong[first] or 10} (sum, compared exactly)"
        # doubled references are off by 0.5; a reference of 10 against 0 by 1
        worst = next((i for i in ids if wrong[i] == 0), ids[0])
        assert lines[1] == (
            f"7 of 40 queries mismatch; worst relative error {1 if wrong[worst] == 0 else 0.5:.3g}"
            f" at query {worst}; first mismatching ids: {', '.join(map(str, ids[:5]))}"
        )
        assert len(lines) == 2


def test_verify_agrees_with_the_reference_on_nan(tmp_path, capsys, monkeypatch):
    d, q = tmp_path / "d.csv", tmp_path / "q.csv"
    d.write_text("id,x1,weight\n0,1,inf\n1,2,-inf\n")
    q.write_text("id,x1\n5,3\n")
    assert main(["run", str(d), str(q), "--monoid", "sum"]) == EXIT_OK
    assert capsys.readouterr().out == "5,nan\n"
    assert main(["verify", str(d), str(q), "--monoid", "sum"]) == EXIT_OK
    assert capsys.readouterr().out == "verified 1 queries\n"
    # NaN against a number still mismatches
    monkeypatch.setattr(domscan.cli, "brute_force", lambda *args: {5: 1.0})
    assert main(["verify", str(d), str(q), "--monoid", "sum"]) == EXIT_MISMATCH
    assert capsys.readouterr().out.splitlines()[0] == (
        "mismatch at query 5: pipeline nan, reference 1.0 (fsum, compared within tolerance 1e-09)"
    )


def test_missing_or_unreadable_input_file(tmp_path, capsys):
    missing = tmp_path / "nonexist.csv"
    assert main(["run", str(missing), FIXTURE[1]]) == EXIT_INPUT
    assert f"{missing}: cannot read" in capsys.readouterr().err
    # a directory where a query file belongs
    assert main(["verify", FIXTURE[0], str(tmp_path)]) == EXIT_INPUT
    assert f"{tmp_path}: cannot read" in capsys.readouterr().err


def test_data_file_that_is_not_text(tmp_path, capsys):
    d = tmp_path / "d.csv"
    text = b"id,x1,weight\n0,1,"
    d.write_bytes(text + b"\xff\n")
    assert main(["run", str(d), FIXTURE[1]]) == EXIT_INPUT
    message = _last_stderr_line(capsys)
    # the encoding named is the locale's, utf-8 on most hosts
    assert message.startswith(f"domscan: {d}: cannot read: not ")
    assert message.endswith(f" text at byte {len(text)}")


def test_expected_file_that_is_not_text(tmp_path, capsys):
    bad = tmp_path / "expected.csv"
    bad.write_bytes(EXPECTED + b"\xff\n")
    assert main(["verify", *FIXTURE, "--expected", str(bad)]) == EXIT_INPUT
    message = _last_stderr_line(capsys)
    assert message.startswith(f"domscan: {bad}: cannot read: not ")
    assert message.endswith(f" text at byte {len(EXPECTED)}")


def test_wrong_arity_row_reports_line(tmp_path, capsys):
    d = tmp_path / "d.csv"
    d.write_text("id,x1,x2,weight\n0,1,2,3\n1,1,2,3,4\n")
    q = tmp_path / "q.csv"
    q.write_text("id,x1,x2\n9,1,2\n")
    assert main(["run", str(d), str(q)]) == EXIT_INPUT
    assert "line 3" in capsys.readouterr().err


def test_nan_coordinate_reports_line(tmp_path, capsys):
    d = tmp_path / "d.csv"
    d.write_text("id,x1,x2,weight\n0,1,2,3\n1,nan,2,3\n")
    q = tmp_path / "q.csv"
    q.write_text("id,x1,x2\n8,1,2\n9,3,NaN\n")
    for variant in ("basic", "improved"):
        assert main(["run", str(d), str(q), "--variant", variant]) == EXIT_INPUT
        assert "line 3: NaN coordinate" in capsys.readouterr().err
    d.write_text("id,x1,x2,weight\n0,1,2,3\n")
    assert main(["run", str(d), str(q)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "q.csv: line 3: NaN coordinate" in err


def test_nan_weight_reports_line(tmp_path, capsys):
    d = tmp_path / "d.csv"
    d.write_text("id,x1,weight\n0,0.5,5\n1,0.1,nan\n")
    q = tmp_path / "q.csv"
    q.write_text("id,x1\n10,1\n")
    for command in ("run", "verify"):
        for monoid in ("count", "sum", "min", "max"):
            assert main([command, str(d), str(q), "--monoid", monoid]) == EXIT_INPUT
            assert _last_stderr_line(capsys) == f"domscan: {d}: line 3: NaN weight"
    # coordinates are checked before the weight
    d.write_text("id,x1,weight\n0,0.5,5\n1,nan,nan\n")
    assert main(["run", str(d), str(q)]) == EXIT_INPUT
    assert _last_stderr_line(capsys) == f"domscan: {d}: line 3: NaN coordinate"


def test_dim_flag_mismatch(tmp_path, capsys):
    assert main(["run", *FIXTURE, "--dim", "3"]) == EXIT_INPUT
    assert "expected 3" in capsys.readouterr().err


def test_header_faults_name_the_header_line_after_blank_lines(tmp_path, capsys):
    d, q = tmp_path / "d.csv", tmp_path / "q.csv"
    d.write_text("\n \nfoo,x1\n0,1\n")
    q.write_text("id,x1\n9,2\n")
    assert main(["run", str(d), str(q)]) == EXIT_INPUT
    assert _last_stderr_line(capsys) == f"domscan: {d}: line 3: header must start with 'id'"
    d.write_text("\r\n\r\nid,x1,x2,weight\r\n0,1,2,3\r\n")
    assert main(["run", str(d), str(q), "--dim", "1"]) == EXIT_INPUT
    assert _last_stderr_line(capsys) == f"domscan: {d}: line 3: header has 2 coordinates, expected 1"


def test_unparsable_number(tmp_path, capsys):
    d = tmp_path / "d.csv"
    d.write_text("id,x1,weight\n0,abc,1\n")
    q = tmp_path / "q.csv"
    q.write_text("id,x1\n9,1\n")
    assert main(["run", str(d), str(q)]) == EXIT_INPUT
    assert "line 2" in capsys.readouterr().err


def test_duplicate_id_across_files(tmp_path, capsys):
    d = tmp_path / "d.csv"
    d.write_text("id,x1\n0,1\n")
    q = tmp_path / "q.csv"
    q.write_text("id,x1\n0,2\n")
    assert main(["run", str(d), str(q)]) == EXIT_INPUT
    assert "duplicate" in capsys.readouterr().err


def test_files_that_disagree_on_the_coordinate_count(tmp_path, capsys):
    q = tmp_path / "q.csv"
    q.write_text("id,x1,x2,x3\n9,1,2,3\n")
    assert main(["run", FIXTURE[0], str(q)]) == EXIT_INPUT
    assert _last_stderr_line(capsys) == "domscan: data and query files disagree on the coordinate count"


def test_empty_data_file_has_no_header(tmp_path, capsys):
    d = tmp_path / "d.csv"
    d.write_text("")
    assert main(["run", str(d), FIXTURE[1]]) == EXIT_INPUT
    assert _last_stderr_line(capsys) == f"domscan: {d}: missing header row"


def test_header_without_coordinates(tmp_path, capsys):
    d = tmp_path / "d.csv"
    d.write_text("id\n0\n")
    assert main(["run", str(d), FIXTURE[1]]) == EXIT_INPUT
    assert _last_stderr_line(capsys) == f"domscan: {d}: line 1: no coordinate columns"


def test_gen_rejects_negative_sizes(tmp_path, capsys):
    d, q = tmp_path / "d.csv", tmp_path / "q.csv"
    assert main(["gen", "--n", "-1", "--q", "2", "--data", str(d), "--queries", str(q)]) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "domscan: sizes must be nonnegative and --dim positive\n"
    assert not d.exists() and not q.exists()


def test_verify_expected_file_of_another_length(tmp_path, capsys):
    d, q, expected = tmp_path / "d.csv", tmp_path / "q.csv", tmp_path / "expected.csv"
    d.write_text("id,x1,weight\n0,1,2\n")
    q.write_text("id,x1\n5,0\n6,3\n")
    expected.write_text("5,0\n")
    assert main(["verify", str(d), str(q), "--expected", str(expected)]) == EXIT_MISMATCH
    assert capsys.readouterr().out == "result count mismatch: pipeline 2, expected file 1\n"


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", *FIXTURE, "--bogus"])
    assert exc.value.code == EXIT_USAGE


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == EXIT_USAGE


def test_empty_query_file_gives_empty_output(tmp_path, capsys):
    q = tmp_path / "q.csv"
    q.write_text("id,x1,x2\n")
    assert main(["run", str(FIXTURE[0]), str(q)]) == EXIT_OK
    assert capsys.readouterr().out == ""


def test_header_only_data_file_against_wider_queries_answers_the_unit(tmp_path, capsys):
    d, q = tmp_path / "d.csv", tmp_path / "q.csv"
    d.write_text("id,x1,x2,weight\n")
    q.write_text("id,x1,x2,x3\n7,1,2,3\n8,0,0,0\n")
    for monoid, unit in (("count", "0"), ("sum", "0"), ("min", "+inf"), ("max", "-inf")):
        assert main(["run", str(d), str(q), "--monoid", monoid]) == EXIT_OK
        assert capsys.readouterr().out == f"7,{unit}\n8,{unit}\n"


def test_min_monoid_prints_inf_literal(tmp_path, capsys):
    d = tmp_path / "d.csv"
    d.write_text("id,x1,weight\n0,5,3\n")
    q = tmp_path / "q.csv"
    q.write_text("id,x1\n1,1\n2,9\n")
    assert main(["run", str(d), str(q), "--monoid", "min"]) == EXIT_OK
    assert capsys.readouterr().out == "1,+inf\n2,3\n"
    assert main(["run", str(d), str(q), "--monoid", "max"]) == EXIT_OK
    assert capsys.readouterr().out == "1,-inf\n2,3\n"


@pytest.mark.parametrize(
    "sizes",
    [["--dim", "0", "--n0", "8", "--rounds", "1"], ["--dim", "-1"], ["--n0", "-4", "--rounds", "2"]],
    ids=["dim-0", "dim-negative", "n0-negative"],
)
def test_bench_rejects_bad_sizes_before_printing(sizes, capsys):
    assert main(["bench", *sizes]) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "domscan: --n0, --rounds and --dim must be positive\n"


def test_bench_prints_table(capsys):
    assert main(["bench", "--n0", "32", "--rounds", "2", "--dim", "2"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert "seconds" in lines[0] and lines[0].split()[-1] == "backend"
    assert lines[0].split()[2:4] == ["expanded", "regrouped"]
    assert all(0 < int(line.split()[3]) < int(line.split()[2]) for line in lines[1:])
    assert lines[1].split()[-1] == ("numpy" if HAVE_NUMPY else "seq")
