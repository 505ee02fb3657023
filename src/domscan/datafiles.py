"""Flat-file formats and deterministic instance generation.

Data files are comma-separated with a header row ``id,x1,...,xm,weight``
(the weight column may be omitted, in which case every weight is 1);
query files use ``id,x1,...,xm``. Result files carry one ``id,value``
row per query, ascending by id, with no header.
"""

from __future__ import annotations

import math
import random
import sys
from contextlib import contextmanager
from itertools import repeat
from typing import Any

from .pipeline import InputError, Point, PointTable, data_point, query_point


def _parse_number(text: str) -> Any:
    try:
        return int(text)
    except ValueError:
        return float(text)


def read_points(path: str, *, queries: bool, dims: int | None = None) -> PointTable:
    """Parse a data or query file into a point table.

    ``dims``, when given, is cross-checked against the header. Errors
    report the offending physical line number (the header is line 1).
    Lines may end in LF, CRLF or CR; blank lines are skipped but counted.

    The rows are parsed column by column; a file with any row that the
    column parse cannot take is parsed again line by line
    (:func:`_parse_lines`), which reports the first bad line.
    """
    try:
        with open(path, newline="") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"{path}: cannot read: {exc.strerror or exc}") from None
    # The line ends that iterating a file opened with newline="" splits on.
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    rows = list(filter(str.strip, lines))
    if not rows:
        raise InputError(f"{path}: missing header row")
    header = [c.strip() for c in rows[0].split(",")]
    if not header or header[0] != "id":
        raise InputError(f"{path}: line 1: header must start with 'id'")
    has_weight = not queries and header[-1] == "weight"
    m = len(header) - 1 - (1 if has_weight else 0)
    if m < 1:
        raise InputError(f"{path}: line 1: no coordinate columns")
    if dims is not None and m != dims:
        raise InputError(f"{path}: line 1: header has {m} coordinates, expected {dims}")
    table = _parse_columns(rows[1:], len(header), m, has_weight, queries)
    if table is None:
        table = _parse_lines(path, lines, len(header), m, has_weight, queries)
    return table


def _parse_columns(rows: list[str], ncols: int, m: int, has_weight: bool, queries: bool) -> PointTable | None:
    """The rows as a table, or None when some row has the wrong number
    of cells, a cell that does not parse, or a NaN coordinate or weight.

    ``int`` and ``float`` ignore surrounding whitespace as ``str.strip``
    does, so each cell converts to what :func:`_parse_lines` makes of it.
    """
    n = len(rows)
    if set(map(str.count, rows, repeat(",", n))) != {ncols - 1}:
        return None
    cells = ",".join(rows).split(",")
    try:
        ids = list(map(int, cells[0::ncols]))
        coords = [list(map(float, cells[1 + d :: ncols])) for d in range(m)]
        if not has_weight:
            weights = [None if queries else 1] * n
        else:
            column = cells[1 + m :: ncols]
            try:
                weights = list(map(int, column))
            except ValueError:
                weights = list(map(_parse_number, column))
                if any(w != w for w in weights):
                    return None
    except ValueError:
        return None
    if any(any(map(math.isnan, column)) for column in coords):
        return None
    return PointTable(ids, coords, weights, queries)


def _parse_lines(
    path: str, lines: list[str], expected_cols: int, m: int, has_weight: bool, queries: bool
) -> PointTable:
    """Parse the rows after the header one line at a time, raising
    :class:`InputError` with the line number at the first bad one."""
    numbered = [(lineno, line) for lineno, line in enumerate(lines, start=1) if line.strip()]
    ids, rows, weights = [], [], []
    for lineno, line in numbered[1:]:
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != expected_cols:
            raise InputError(
                f"{path}: line {lineno}: expected {expected_cols} columns, found {len(cells)}"
            )
        try:
            pid = int(cells[0])
            coords = tuple(float(c) for c in cells[1 : 1 + m])
            weight = _parse_number(cells[1 + m]) if has_weight else 1
        except ValueError as exc:
            raise InputError(f"{path}: line {lineno}: {exc}") from None
        if any(map(math.isnan, coords)):
            raise InputError(f"{path}: line {lineno}: NaN coordinate")
        if weight != weight:
            raise InputError(f"{path}: line {lineno}: NaN weight")
        ids.append(pid)
        rows.append(coords)
        weights.append(None if queries else weight)
    columns = [list(c) for c in zip(*rows)] if rows else [[] for _ in range(m)]
    return PointTable(ids, columns, weights, queries)


def check_unique_ids(data: list[Point], queries: list[Point]) -> None:
    seen: set[int] = set()
    for p in (*data, *queries):
        if p.id in seen:
            raise InputError(f"duplicate point id {p.id}")
        seen.add(p.id)


def format_value(value: Any) -> str:
    """Stable text for an aggregated value.

    Integers print as integers, floats with 12 significant digits, and
    the min/max units as "+inf" / "-inf".
    """
    if isinstance(value, float):
        if value == float("inf"):
            return "+inf"
        if value == float("-inf"):
            return "-inf"
        return f"{value:.12g}"
    return str(value)


def result_lines(results) -> list[str]:
    return [f"{r.id},{format_value(r.value)}" for r in results]


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
    text = "".join(line + "\n" for line in result_lines(results))
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
