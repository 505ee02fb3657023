"""read_points against a line-by-line reference parser."""

import math
import sys
import tempfile
import warnings
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domscan import datafiles
from domscan.datafiles import InputError, read_points
from domscan.pipeline import data_point, query_point


@contextmanager
def unlimited_digits():
    """Python's conversions between int and text without their digit limit."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def reference_number(text):
    """The cell as an ``int`` of any length, or else as a ``float``."""
    with unlimited_digits():
        try:
            return int(text)
        except ValueError:
            return float(text)


def reference_read_points(path, *, queries, dims=None):
    """One line at a time, one point per row: the parser read_points
    replaced, plus its rejection of NaN weights."""
    try:
        with open(path, newline="") as fh:
            numbered = [
                (lineno, line.rstrip("\n"))
                for lineno, line in enumerate(fh, start=1)
                if line.strip()
            ]
    except OSError as exc:
        raise InputError(f"{path}: cannot read: {exc.strerror or exc}") from None
    if not numbered:
        raise InputError(f"{path}: missing header row")
    header_line, header = numbered[0][0], [c.strip() for c in numbered[0][1].split(",")]
    if not header or header[0] != "id":
        raise InputError(f"{path}: line {header_line}: header must start with 'id'")
    has_weight = not queries and header[-1] == "weight"
    m = len(header) - 1 - (1 if has_weight else 0)
    if m < 1:
        raise InputError(f"{path}: line {header_line}: no coordinate columns")
    if dims is not None and m != dims:
        raise InputError(f"{path}: line {header_line}: header has {m} coordinates, expected {dims}")
    expected_cols = len(header)
    points = []
    for lineno, line in numbered[1:]:
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != expected_cols:
            raise InputError(
                f"{path}: line {lineno}: expected {expected_cols} columns, found {len(cells)}"
            )
        try:
            if len(cells[0].lstrip("+-").replace("_", "")) > 4300:
                raise ValueError("id too long: more than 4300 digits")
            pid = int(cells[0])
            coords = tuple(float(c) for c in cells[1 : 1 + m])
            weight = reference_number(cells[1 + m]) if has_weight else 1
        except ValueError as exc:
            raise InputError(f"{path}: line {lineno}: {exc}") from None
        if any(map(math.isnan, coords)):
            raise InputError(f"{path}: line {lineno}: NaN coordinate")
        if weight != weight:
            raise InputError(f"{path}: line {lineno}: NaN weight")
        points.append(query_point(pid, coords) if queries else data_point(pid, coords, weight))
    return points


# Integers of 4,300 digits and more: Python's limit on the digits of an
# int read from text, which the weights are read past and ids are not.
LONG = ["9" * 4300, "1" + "0" * 5000, "-" + "9" * 4400, "1_" + "0" * 4400]
# Cells that parse, then cells that do not (or parse to NaN). Among them
# are cells numpy's parse rejects and Python reads ("1_000", "١", an id
# or weight past int64, a weight written as a float) and cells both read
# ("\xa05", "INF", "1e400", "-0", "\x1c5").
IDS = (
    ["0", "7", "+7", "-3", "1_000", "12", "١", "\xa05", "-0", "\x1c5", "9223372036854775808", LONG[0]],
    ["abc", "", "1.5", "1d5", "0x10", "INF", "Infinity", "1e400", *LONG[1:]],
)
COORDS = (
    ["0.5", "1e3", "+inf", "-inf", "1_000", "+7", "-0.0", "2", "١", "\xa05", "INF", "Infinity", "1e400", "-0", "\x1c5"],
    ["nan", "x", "", "1d5", "0x10"],
)
WEIGHTS = (
    ["5", "5.0", "-2", "1e3", "+inf", "1_000", "+7", "١", "\xa05", "INF", "Infinity", "1e400", "-0", "\x1c5",
     "9223372036854775808", *LONG],
    ["nan", "w", "", "1d5", "0x10"],
)
SPACE = st.sampled_from(["", "", " ", "  ", "\t"])
ENDS = ["\n", "\r\n", "\r"]
BLANK = st.sampled_from(["", " ", "   ", "\t"])


def padded(cells, bad):
    good, wrong = cells
    return st.tuples(SPACE, st.sampled_from(good + wrong if bad else good), SPACE).map("".join)


@st.composite
def csv_files(draw):
    """``(text, queries, dims)``: a header, rows of cells with spaces
    around them, blank lines anywhere, and LF, CRLF or CR line ends
    (mixed within a file at times). One file in three may hold bad
    cells and rows."""
    bad = draw(st.integers(0, 2)) == 0
    queries = draw(st.booleans())
    m = draw(st.integers(1, 3))
    weighted = not queries and draw(st.booleans())
    names = ["id", *(f"x{i + 1}" for i in range(m)), *(["weight"] if weighted else [])]
    header = ",".join(draw(SPACE) + name for name in names)
    lines = [header]
    for _ in range(draw(st.integers(0, 6))):
        cells = [draw(padded(IDS, bad))]
        cells += [draw(padded(COORDS, bad)) for _ in range(m)]
        if weighted:
            cells.append(draw(padded(WEIGHTS, bad)))
        if bad and draw(st.integers(0, 4)) == 0:  # a row with one cell too many or too few
            cells = cells[:-1] if draw(st.booleans()) else [*cells, "1"]
        lines.append(",".join(cells))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(BLANK))
    ends = draw(st.lists(st.sampled_from(ENDS), min_size=1, max_size=2))
    text = "".join(line + draw(st.sampled_from(ends)) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    dims = draw(st.sampled_from([None, m, m, m + 1]))
    return text, queries, dims


def parse(parser, path, queries, dims):
    """Rows as ``repr`` strings, so that types count, or the error message."""
    try:
        points = parser(path, queries=queries, dims=dims)
    except InputError as exc:
        return str(exc)
    with unlimited_digits():
        return [(repr(p.id), tuple(map(repr, p.coords)), repr(p.weight), p.is_query) for p in points]


@given(csv_files())
@settings(max_examples=500)
def test_read_points_matches_the_line_by_line_reference(case):
    text, queries, dims = case
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "points.csv")
        with open(path, "w", newline="") as fh:
            fh.write(text)
        want = parse(reference_read_points, path, queries, dims)
        parse_arrays = datafiles._parse_arrays
        numpy_parsed = []

        def arrays(*args):
            table = parse_arrays(*args)
            numpy_parsed.append(table is not None)
            return table

        with mock.patch.object(datafiles, "_parse_arrays", arrays), mock.patch.object(
            datafiles, "_parse_rows", wraps=datafiles._parse_rows
        ) as rows:
            got = parse(read_points, path, queries, dims)
    assert got == want
    if isinstance(want, list):
        # a file without a bad row, header-only included, is parsed once,
        # whole, by exactly one of the two parsers
        assert numpy_parsed.count(True) + rows.call_count == 1


@pytest.mark.parametrize(
    "text, queries",
    [
        ("id,x1,weight\n4,0.25,-3\n", False),  # one row
        ("id,x1,x2,weight\n1,0.5,2,7\n\n-0,-0,1e400,-9223372036854775808\n", False),
        ("id,x1\n1,0.5\n2,3\n", False),  # every weight 1
        ("id,x1,x2\r\n1, 0.5 ,+inf\r\n2,.5,INF\r\n", True),
    ],
)
def test_plain_files_are_parsed_by_numpy(tmp_path, text, queries):
    pytest.importorskip("numpy")
    path = tmp_path / "points.csv"
    path.write_text(text, newline="")
    from domscan.vector import Column

    table = read_points(str(path), queries=queries)
    assert all(isinstance(c, Column) for c in (table.ids, *table.coords))
    assert isinstance(table.weights, list if queries else Column)
    with mock.patch.object(datafiles, "_parse_arrays", lambda *args: None):
        table = read_points(str(path), queries=queries)
        assert all(type(c) is list for c in (table.ids, *table.coords, table.weights))
        want = parse(read_points, str(path), queries, None)
    assert parse(read_points, str(path), queries, None) == want


def test_a_parse_that_warns_or_predates_numpy_1_23_is_left_to_python(monkeypatch):
    np = pytest.importorskip("numpy")
    loadtxt = np.loadtxt

    def loadtxt_reading_ints_through_float(rows, **kwargs):
        # what loadtxt did from numpy 1.23: read "5.0" in an int64 field as 5, and warn
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
        return loadtxt([row.replace("5.0", "5") for row in rows], **kwargs)

    assert datafiles._parse_arrays(["1,0.5,5"], 1, True, False) is not None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # no warning reaches the caller's filters
        assert datafiles._parse_arrays(["1,0.5,5.0"], 1, True, False) is None
        monkeypatch.setattr(np, "loadtxt", loadtxt_reading_ints_through_float)
        assert datafiles._parse_arrays(["1,0.5,5.0"], 1, True, False) is None
    monkeypatch.setattr(np, "loadtxt", loadtxt)
    monkeypatch.setattr(np, "__version__", "1.22.4")
    assert datafiles._parse_arrays(["1,0.5,5"], 1, True, False) is None


def test_result_lines_format_whole_columns_as_each_value_would_be():
    from backends import BACKENDS, run_on
    from domscan.datafiles import format_value, generate_instance, result_lines
    from domscan.monoids import MONOIDS
    from domscan.pipeline import PipelineConfig, Point

    data, queries = generate_instance(40, 40, 2, seed=5, distribution="gridded")
    floats = [Point(p.id, p.coords, p.weight / 8 - 3.3, False) for p in data]
    for name, monoid in MONOIDS.items():
        for weighted in (data, floats):
            for backend in BACKENDS:
                res, _ = run_on(backend, weighted, queries, PipelineConfig(2, monoid, "basic"))
                lines = result_lines(res)
                assert lines == [f"{r.id},{format_value(r.value)}" for r in res]
