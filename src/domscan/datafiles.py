"""Flat-file formats and deterministic instance generation.

Data files are comma-separated with a header row ``id,x1,...,xm,weight``
(the weight column may be omitted, in which case every weight is 1);
query files use ``id,x1,...,xm``. Result files carry one ``id,value``
row per query, ascending by id, with no header.
"""

from __future__ import annotations

import decimal
import math
import random
import sys
import warnings
from contextlib import contextmanager
from itertools import repeat
from typing import Any

from .pipeline import InputError, Point, PointTable, data_point, query_point


def _parse_number(text: str) -> Any:
    """An ``int`` when the text is an integer literal, exactly whatever
    its length, and otherwise a ``float``."""
    try:
        return int(text)
    except ValueError:
        number = float(text)
    if math.isinf(number) and text.strip().lstrip("+-").replace("_", "").isdecimal():
        return int(decimal.Decimal(text))  # past the digit limit of int(), which float reads as inf
    return number


def read_points(path: str, *, queries: bool, dims: int | None = None) -> PointTable:
    """Parse a data or query file into a point table.

    ``dims``, when given, is cross-checked against the header. Errors
    report the offending physical line number, the header's included.
    Lines may end in LF, CRLF or CR; blank lines are skipped but counted.

    The rows are parsed in C, once, by numpy (:func:`_parse_arrays`),
    into columns that are numpy arrays read as Python values. Where
    numpy does not import or cannot read every cell exactly as Python
    would, they are parsed column by column in Python, into lists
    (:func:`_parse_rows`). When that fails, the same parse runs on one
    row at a time, cells stripped, to name the first bad line and its
    fault.
    """
    lines = read_lines(path)
    rows = list(filter(str.strip, lines))
    if not rows:
        raise InputError(f"{path}: missing header row")
    at = f"{path}: line {lines.index(rows[0]) + 1}"
    header = [c.strip() for c in rows[0].split(",")]
    if not header or header[0] != "id":
        raise InputError(f"{at}: header must start with 'id'")
    has_weight = not queries and header[-1] == "weight"
    m = len(header) - 1 - (1 if has_weight else 0)
    if m < 1:
        raise InputError(f"{at}: no coordinate columns")
    if dims is not None and m != dims:
        raise InputError(f"{at}: header has {m} coordinates, expected {dims}")
    parsed = _parse_arrays(rows[1:], m, has_weight, queries)
    if parsed is not None:
        return parsed
    try:
        return _parse_rows(rows[1:], len(header), m, has_weight, queries)
    except ValueError:
        pass
    numbered = [(lineno, line) for lineno, line in enumerate(lines, start=1) if line.strip()]
    for lineno, line in numbered[1:]:
        row = ",".join(c.strip() for c in line.split(","))
        try:
            _parse_rows([row], len(header), m, has_weight, queries)
        except ValueError as exc:
            raise InputError(f"{path}: line {lineno}: {exc}") from None
    raise RuntimeError(f"{path}: the rows parse one at a time but not together")


def read_lines(path: str) -> list[str]:
    """The lines of a text file, split at LF, CRLF or CR as iterating the
    file would split them. A file that cannot be read or is not valid
    text raises :class:`InputError` naming the path."""
    try:
        with open(path, newline="") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"{path}: cannot read: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: cannot read: not {exc.encoding} text at byte {exc.start}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _parse_arrays(rows: list[str], m: int, has_weight: bool, queries: bool) -> PointTable | None:
    """The rows as a table of ``m`` coordinate columns, parsed by one
    ``numpy.loadtxt`` call into :class:`~domscan.vector.Column` objects:
    int64 ids, float64 coordinates and int64 weights, all 1 when the
    file has no weight column (queries weigh None). None, so that
    :func:`_parse_rows` reads the rows, when there are none, numpy does
    not import or is older than 1.23, ``loadtxt`` raises or warns, or a
    coordinate is NaN.

    Where numpy and Python read a cell differently, numpy rejects it:
    ``1_0``, non-ASCII digits, an id or weight past int64 and a weight
    written as a float (which Python reads as a ``float``). Releases
    from 1.23 that still read such a weight through float warn, and a
    warning fails the parse. The Python ``loadtxt`` before 1.23 read
    cells otherwise than Python (``0x10`` as a float), so it is not
    used. Every cell the parse accepts has the value and type Python
    gives it.
    """
    if not rows:
        return None
    try:
        import numpy as np

        from .vector import Column
    except ImportError:
        return None
    if np.lib.NumpyVersion(np.__version__) < "1.23.0":
        return None
    fields = [("id", np.int64), *((f"x{d}", np.float64) for d in range(m))]
    if has_weight:
        fields.append(("weight", np.int64))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(rows, dtype=fields, delimiter=",", comments=None, ndmin=1)
    except (ValueError, Warning):
        return None
    coords = np.stack([table[f"x{d}"] for d in range(m)])
    if np.isnan(coords).any():
        return None
    if has_weight:
        weights = Column(table["weight"].copy())
    elif queries:
        weights = [None] * len(table)
    else:
        weights = Column(np.ones(len(table), dtype=np.int64))
    return PointTable(Column(table["id"].copy()), [Column(c) for c in coords], weights, queries)


def unit_weights(table: PointTable):
    """Weight 1 for every point of ``table``, in the form its parse gave
    it: an int64 :class:`~domscan.vector.Column` where numpy parsed the
    table, whose dtype answers the run's checks, and a list otherwise."""
    try:
        import numpy as np

        from .vector import Column
    except ImportError:
        return [1] * len(table)
    if not isinstance(table.ids, Column):
        return [1] * len(table)
    return Column(np.ones(len(table), dtype=np.int64))


def _parse_rows(rows: list[str], ncols: int, m: int, has_weight: bool, queries: bool) -> PointTable:
    """The rows as a table of ``m`` coordinate columns. A row with the
    wrong number of cells, a cell that does not parse, or a NaN
    coordinate or weight raises ``ValueError``; for a single row its
    message is the fault, found in the order id, coordinates, weight;
    an id written with more digits than Python reads as an ``int`` is
    too long.

    ``int`` and ``float`` ignore surrounding whitespace as ``str.strip``
    does, except the information separators U+001C to U+001F, so cells
    are stripped first in rows that hold one: a row gives the same
    values with its cells stripped or not.
    """
    n = len(rows)
    wrong = set(map(str.count, rows, repeat(",", n))) - {ncols - 1}
    if wrong:
        raise ValueError(f"expected {ncols} columns, found {min(wrong) + 1}")
    text = ",".join(rows)
    cells = text.split(",") if rows else []
    if any(c in text for c in "\x1c\x1d\x1e\x1f"):
        cells = list(map(str.strip, cells))
    try:
        ids = list(map(int, cells[0::ncols]))
    except ValueError:
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # no limit before Python 3.10.7
        if n == 1 and 0 < limit < len(cells[0].strip().lstrip("+-").replace("_", "")):
            raise ValueError(f"id too long: more than {limit} digits") from None
        raise
    coords = [list(map(float, cells[1 + d :: ncols])) for d in range(m)]
    nan_weight = False
    if not has_weight:
        weights = [None if queries else 1] * n
    else:
        column = cells[1 + m :: ncols]
        try:
            weights = list(map(int, column))
        except ValueError:
            weights = list(map(_parse_number, column))
            nan_weight = any(w != w for w in weights)
    if any(any(map(math.isnan, column)) for column in coords):
        raise ValueError("NaN coordinate")
    if nan_weight:
        raise ValueError("NaN weight")
    return PointTable(ids, coords, weights, queries)


def check_unique_ids(data: list[Point], queries: list[Point]) -> None:
    seen: set[int] = set()
    for p in (*data, *queries):
        if p.id in seen:
            raise InputError(f"duplicate point id {p.id}")
        seen.add(p.id)


def format_value(value: Any) -> str:
    """Stable text for an aggregated value.

    Integers print as integers, exactly whatever their length, floats
    with 12 significant digits, and the min/max units as "+inf" / "-inf".
    """
    if isinstance(value, float):
        if value == float("inf"):
            return "+inf"
        if value == float("-inf"):
            return "-inf"
        return f"{value:.12g}"
    try:
        return str(value)
    except ValueError:  # an int past the digit limit of str()
        return str(decimal.Decimal(value))


def format_column(values) -> list[str]:
    """:func:`format_value` of every value in a column of results. A
    numpy column of min/max weights holds codes of its distinct weights
    (``decode``), so each distinct weight is formatted once."""
    decode = getattr(values, "decode", None)
    if decode is not None:
        texts = list(map(format_value, decode))
        return list(map(texts.__getitem__, values.a.tolist()))
    return list(map(format_value, values))


def result_lines(results) -> list[str]:
    """One ``id,value`` line per result of a run's
    :class:`~domscan.pipeline.QueryResults`, formatted column by column."""
    ids, values = results.columns
    return [f"{i},{v}" for i, v in zip(ids, format_column(values))]


@contextmanager
def writing(path: str):
    """``open(path, "w")``, turning a failure to write into an
    :class:`InputError` that names the path."""
    try:
        with open(path, "w") as fh:
            yield fh
    except OSError as exc:
        raise InputError(f"{path}: cannot write: {exc.strerror or exc}") from None


def write_results(path: str | None, results) -> None:
    lines = result_lines(results)
    text = "\n".join(lines) + "\n" if lines else ""
    if path is None:
        sys.stdout.write(text)
    else:
        with writing(path) as fh:
            fh.write(text)


def generate_instance(
    n_data: int,
    n_queries: int,
    dims: int,
    seed: int,
    distribution: str = "uniform",
) -> tuple[list[Point], list[Point]]:
    """Deterministic pseudo-random instance.

    Coordinates are uniform in [0, 1); the "gridded" distribution draws
    them from ten fixed values instead, forcing repeated coordinates.
    Weights are integers in [0, 100]. The same arguments always produce
    the same instance.
    """
    if distribution not in ("uniform", "gridded"):
        raise ValueError(f"unknown distribution {distribution!r}")
    rng = random.Random(seed)
    if distribution == "gridded":
        draw = lambda: rng.randrange(10) / 10
    else:
        draw = rng.random
    data = [
        data_point(i, tuple(draw() for _ in range(dims)), rng.randint(0, 100))
        for i in range(n_data)
    ]
    queries = [
        query_point(n_data + i, tuple(draw() for _ in range(dims)))
        for i in range(n_queries)
    ]
    return data, queries


def write_instance(data_path: str, query_path: str, data, queries, dims: int) -> None:
    coord_names = [f"x{i+1}" for i in range(dims)]
    with writing(data_path) as fh:
        fh.write(",".join(["id", *coord_names, "weight"]) + "\n")
        for p in data:
            fh.write(f"{p.id}," + ",".join(repr(c) for c in p.coords) + f",{p.weight}\n")
    with writing(query_path) as fh:
        fh.write(",".join(["id", *coord_names]) + "\n")
        for q in queries:
            fh.write(f"{q.id}," + ",".join(repr(c) for c in q.coords) + "\n")
