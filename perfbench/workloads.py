"""The benchmark's workloads: specifications, seeded inputs and the oracle check.

Inputs are generated here rather than by ``domscan.datafiles``, so a
change to the program's own instance generator cannot shift the
workloads. Points are built only through the public ``data_point`` and
``query_point`` constructors, and the CLI workload's files are written
in the documented CSV format (``id,x1,...,xm,weight`` for data,
``id,x1,...,xm`` for queries).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# A seed kept out of tuning, for checking claims made on other seeds.
HELD_OUT_SEED = 7919

# The oracle is quadratic; the sample keeps each check near 2^21
# point pairs whatever the workload's size.
ORACLE_PAIRS = 1 << 21


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    variant: str
    dims: int
    n_data: int
    n_queries: int
    distribution: str  # "uniform": [0, 1); "gridded": ten fixed values
    weights: tuple[int, int]
    monoid: str
    via_cli: bool

    @property
    def n_points(self) -> int:
        return self.n_data + self.n_queries

    @property
    def sample_size(self) -> int:
        return max(32, min(self.n_queries, ORACLE_PAIRS // self.n_data))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "improved-d3-signed",
            "improved variant (~0.8M tuples, raw last coordinate); signed weights force the general resort/shift/rescan distribution",
            "improved", 3, 8192, 8192, "uniform", (-100, 100), "sum", False,
        ),
        Workload(
            "cli-gridded-d2",
            "domscan run on CSV files, small expansion (widths 4/4): load, rank and write carry a large share; ties flip the scan shape; min broadcast",
            "basic", 2, 32768, 32768, "gridded", (0, 100), "min", True,
        ),
    )
}


def generate(w: Workload, seed: int):
    """``(data, queries)`` for workload ``w``; the same seed gives the same points."""
    from domscan import data_point, query_point

    rng = random.Random(f"{w.name}:{seed}")
    if w.distribution == "gridded":
        draw = lambda: rng.randrange(10) / 10  # noqa: E731
    else:
        draw = rng.random
    lo, hi = w.weights
    data = [
        data_point(i, [draw() for _ in range(w.dims)], rng.randint(lo, hi))
        for i in range(w.n_data)
    ]
    queries = [
        query_point(w.n_data + i, [draw() for _ in range(w.dims)])
        for i in range(w.n_queries)
    ]
    return data, queries


def write_csv(directory: Path, w: Workload, data, queries) -> tuple[Path, Path]:
    """Write the instance as the CLI's data and query files."""
    names = [f"x{i + 1}" for i in range(w.dims)]
    data_path, query_path = directory / "data.csv", directory / "queries.csv"
    with open(data_path, "w") as fh:
        fh.write(",".join(["id", *names, "weight"]) + "\n")
        for p in data:
            fh.write(f"{p.id}," + ",".join(map(repr, p.coords)) + f",{p.weight}\n")
    with open(query_path, "w") as fh:
        fh.write(",".join(["id", *names]) + "\n")
        for q in queries:
            fh.write(f"{q.id}," + ",".join(map(repr, q.coords)) + "\n")
    return data_path, query_path


def sample_queries(w: Workload, seed: int, queries) -> list:
    """The seeded subset of queries whose answers are checked."""
    rng = random.Random(f"{w.name}:{seed}:sample")
    return sorted(rng.sample(queries, w.sample_size), key=lambda q: q.id)


def parse_results(path: Path) -> dict:
    """``id -> value`` from a result file of ``id,value`` rows."""
    out = {}
    with open(path) as fh:
        for line in fh:
            pid, _, text = line.strip().partition(",")
            try:
                out[int(pid)] = int(text)
            except ValueError:
                out[int(pid)] = float(text)  # also reads "+inf" and "-inf"
    return out


def count_wrong(expected: dict, got: dict, monoid) -> int:
    """Sampled queries whose answer is missing or differs from the oracle's."""
    return sum(
        1
        for qid, want in expected.items()
        if qid not in got or not monoid.value_eq(got[qid], want)
    )
