"""Flat-file formats and deterministic instance generation.

Data files are comma-separated with a header row ``id,x1,...,xm,weight``
(the weight column may be omitted, in which case every weight is 1);
query files use ``id,x1,...,xm``. Result files carry one ``id,value``
row per query, ascending by id, with no header.
"""

from __future__ import annotations

import math
import random
from typing import Any

from .pipeline import Point, data_point, query_point


class InputError(ValueError):
    """Unreadable or malformed input file: missing file, bad arity,
    unparsable number, NaN, duplicate id."""


def _parse_number(text: str) -> Any:
    try:
        return int(text)
    except ValueError:
        return float(text)


def read_points(path: str, *, queries: bool, dims: int | None = None) -> list[Point]:
    """Parse a data or query file into points.

    ``dims``, when given, is cross-checked against the header. Errors
    report the offending physical line number (the header is line 1).
    """
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
    header = [c.strip() for c in numbered[0][1].split(",")]
    if not header or header[0] != "id":
        raise InputError(f"{path}: line 1: header must start with 'id'")
    has_weight = not queries and header[-1] == "weight"
    m = len(header) - 1 - (1 if has_weight else 0)
    if m < 1:
        raise InputError(f"{path}: line 1: no coordinate columns")
    if dims is not None and m != dims:
        raise InputError(f"{path}: line 1: header has {m} coordinates, expected {dims}")
    expected_cols = len(header)
    points: list[Point] = []
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
        points.append(query_point(pid, coords) if queries else data_point(pid, coords, weight))
    return points


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


def write_results(path: str | None, results) -> None:
    text = "".join(line + "\n" for line in result_lines(results))
    if path is None:
        import sys

        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
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
    with open(data_path, "w") as fh:
        fh.write(",".join(["id", *coord_names, "weight"]) + "\n")
        for p in data:
            fh.write(f"{p.id}," + ",".join(repr(c) for c in p.coords) + f",{p.weight}\n")
    with open(query_path, "w") as fh:
        fh.write(",".join(["id", *coord_names]) + "\n")
        for q in queries:
            fh.write(f"{q.id}," + ",".join(repr(c) for c in q.coords) + "\n")
