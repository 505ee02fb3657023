"""Command-line interface.

Subcommands:

  run     aggregate a data file against a query file, write id,value rows
  verify  run the pipeline and the brute-force reference, compare
  gen     write a deterministic pseudo-random instance to two files
  bench   repeat a run over doubling sizes and print a measurement table

Exit codes: 0 success, 1 verification mismatch, 2 input error (bad
input data, or a file that cannot be read or written), 3 usage error,
4 internal error (a failure inside domscan itself, not caused by the
input).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from .datafiles import (
    InputError,
    generate_instance,
    read_lines,
    read_points,
    result_lines,
    write_instance,
    write_results,
    writing,
)
from .monoids import FLOAT_SUM, MONOIDS
from .oracle import brute_force
from .pipeline import PipelineConfig, PointTable, point_table, run

# check_unique_ids is not called: the pipeline's own validation rejects
# repeated ids. It stays reachable here because the benchmark's tracer
# wraps cli.check_unique_ids (perfbench/tracing.py).
from .datafiles import check_unique_ids  # noqa: F401

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4

CLI_MONOIDS = ("count", "sum", "min", "max")
_FLOAT_MAX = int(sys.float_info.max)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage problems; 2 is reserved for bad
    # input data here, so remap.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dim", type=int, default=None, help="expected coordinate count (checked against the headers)")
    p.add_argument("--monoid", choices=CLI_MONOIDS, default="count", help="aggregation (count ignores the weight column)")
    p.add_argument("--variant", choices=("basic", "improved"), default="basic")


def build_parser() -> _Parser:
    parser = _Parser(prog="domscan", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="aggregate dominated points for every query")
    p_run.add_argument("data_file")
    p_run.add_argument("query_file")
    _add_config_flags(p_run)
    p_run.add_argument("--output", default=None, help="result file (default: stdout)")
    p_run.add_argument("--stats", default=None, help="write a JSON run report here")

    p_verify = sub.add_parser("verify", help="compare the pipeline against the brute-force reference")
    p_verify.add_argument("data_file")
    p_verify.add_argument("query_file")
    _add_config_flags(p_verify)
    p_verify.add_argument("--expected", default=None, help="also compare against this result file")

    p_gen = sub.add_parser("gen", help="generate a deterministic instance")
    p_gen.add_argument("--n", type=int, required=True, help="number of data points")
    p_gen.add_argument("--q", type=int, required=True, help="number of query points")
    p_gen.add_argument("--dim", type=int, default=2)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--distribution", choices=("uniform", "gridded"), default="uniform")
    p_gen.add_argument("--data", default="data.csv", help="data file to write")
    p_gen.add_argument("--queries", default="queries.csv", help="query file to write")

    p_bench = sub.add_parser("bench", help="measure runs over doubling instance sizes")
    p_bench.add_argument("--n0", type=int, default=256, help="starting total point count")
    p_bench.add_argument("--rounds", type=int, default=4, help="number of doublings")
    _add_config_flags(p_bench)
    p_bench.add_argument("--seed", type=int, default=0)

    return parser


def _load(args):
    """The two files as point tables, and the run's configuration; the
    pipeline validates the points."""
    data = read_points(args.data_file, queries=False, dims=args.dim)
    queries = read_points(args.query_file, queries=True, dims=args.dim)
    if data and queries and data.dims != queries.dims:
        raise InputError("data and query files disagree on the coordinate count")
    return _setup(args, data, queries, (queries or data).dims)


def _setup(args, data: PointTable, queries, dims: int):
    """``(data, queries, cfg)`` for one run of ``args.monoid``: ``count``
    gives every data point weight 1, and ``sum`` over any float weight
    runs under the float monoid."""
    monoid = MONOIDS[args.monoid]
    if args.monoid == "count":
        data = PointTable(data.ids, data.coords, [1] * len(data), False)
    elif args.monoid == "sum" and any(isinstance(w, float) for w in data.weights):
        # Float addition depends on the order of the terms, so float weights
        # are summed under the float monoid, which compares within a tolerance.
        monoid = FLOAT_SUM
        # An integer sum past float range raises where a float meets it; the
        # absolute integer weights bound every sum a run or the reference forms.
        total = 0
        for point_id, weight in zip(data.ids, data.weights):
            total += abs(weight) if isinstance(weight, int) else 0
            if total > _FLOAT_MAX:
                raise InputError(f"point {point_id}: integer weights too large to sum with float weights")
    return data, queries, PipelineConfig(dims=dims, monoid=monoid, variant=args.variant)


def _distinct_outputs(first: str | None, second: str | None, flags: str) -> None:
    """Reject two output paths that name one file, before anything is
    read or written."""
    if first is not None and second is not None and os.path.realpath(first) == os.path.realpath(second):
        raise InputError(f"{flags} name the same file: {first}")


def cmd_run(args) -> int:
    _distinct_outputs(args.output, args.stats, "--output and --stats")
    t0 = time.perf_counter()
    data, queries, cfg = _load(args)
    t_load = time.perf_counter() - t0
    t1 = time.perf_counter()
    results, stats = run(data, queries, cfg)
    t_compute = time.perf_counter() - t1
    t2 = time.perf_counter()
    write_results(args.output, results)
    t_write = time.perf_counter() - t2
    if args.stats:
        report = {
            "variant": cfg.variant,
            "monoid": cfg.monoid.name,
            "backend": stats.backend,
            "peak_rss_mb": _peak_rss_mb(),
            "phases": {
                "load_seconds": t_load,
                "compute_seconds": t_compute,
                "write_seconds": t_write,
                **{f"{k}_seconds": v for k, v in stats.phase_seconds.items()},
            },
            "stats": {
                "data_count": stats.data_count,
                "query_count": stats.query_count,
                "expanded_count": stats.expanded_count,
                "widths": list(stats.widths),
                "expansion_vs_bound": stats.expansion_vs_bound,
                "elements_processed": stats.elements_processed,
                "primitive_calls": stats.primitive_calls,
            },
            "results_written": len(results),
        }
        with writing(args.stats) as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return EXIT_OK


def _peak_rss_mb() -> float | None:
    """The process's resident-set high-water mark so far, in MiB, or None
    where the ``resource`` module is missing (Windows). It covers the
    whole process, not the run alone, and a process forked from a larger
    one starts from its parent's mark."""
    try:
        import resource
    except ImportError:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20 if sys.platform == "darwin" else 1024)  # bytes on macOS, KiB elsewhere


def cmd_verify(args) -> int:
    data, queries, cfg = _load(args)
    monoid = cfg.monoid
    results, _ = run(data, queries, cfg)
    expected = brute_force(data, queries, monoid)
    ids, values = list(results.ids), list(results.values)
    wanted = list(map(expected.__getitem__, ids))
    bad = [i for i, (got, want) in enumerate(zip(values, wanted)) if not monoid.value_eq(got, want)]
    if bad:
        first = bad[0]
        rule = f"within tolerance {monoid.tolerance!r}" if monoid.tolerance else "exactly"
        print(
            f"mismatch at query {ids[first]}: pipeline {values[first]!r}, reference {wanted[first]!r}"
            f" ({monoid.name}, compared {rule})"
        )
        error = {i: _relative_error(values[i], wanted[i]) for i in bad}
        worst = max(bad, key=error.__getitem__)
        print(
            f"{len(bad)} of {len(ids)} queries mismatch; worst relative error {error[worst]:.3g}"
            f" at query {ids[worst]}; first mismatching ids: {', '.join(str(ids[i]) for i in bad[:5])}"
        )
        return EXIT_MISMATCH
    if args.expected is not None:
        want = [line.strip() for line in read_lines(args.expected) if line.strip()]
        got = result_lines(results)
        for lineno, (g, w) in enumerate(zip(got, want), start=1):
            if g != w:
                print(f"mismatch at line {lineno}: pipeline {g!r}, expected file {w!r}")
                return EXIT_MISMATCH
        if len(got) != len(want):
            print(f"result count mismatch: pipeline {len(got)}, expected file {len(want)}")
            return EXIT_MISMATCH
    print(f"verified {len(results)} queries")
    return EXIT_OK


def _relative_error(got, want) -> float:
    """``|got - want| / |want|``; infinite against a reference of 0, or
    where a value or the error is past float range."""
    try:
        error = abs(got - want) / abs(want)
    except (ZeroDivisionError, OverflowError):
        return math.inf
    return error if error == error else math.inf  # NaN from inf - inf or inf / inf


def cmd_gen(args) -> int:
    if args.n < 0 or args.q < 0 or args.dim < 1:
        print("domscan: sizes must be nonnegative and --dim positive", file=sys.stderr)
        return EXIT_INPUT
    _distinct_outputs(args.data, args.queries, "--data and --queries")
    data, queries = generate_instance(args.n, args.q, args.dim, args.seed, args.distribution)
    write_instance(args.data, args.queries, data, queries, args.dim)
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.n0 < 1 or args.rounds < 1 or (args.dim is not None and args.dim < 1):
        print("domscan: --n0, --rounds and --dim must be positive", file=sys.stderr)
        return EXIT_INPUT
    dims = 2 if args.dim is None else args.dim
    print(
        f"{'n_data':>8} {'n_query':>8} {'expanded':>10} {'elements':>12} {'calls':>6}"
        f" {'seconds':>9} {'backend':>8}"
    )
    for round_no in range(args.rounds):
        total = args.n0 << round_no
        half = total // 2
        data, queries = generate_instance(half, total - half, dims, args.seed + round_no)
        data, queries, cfg = _setup(args, point_table(data, False, dims), queries, dims)
        t0 = time.perf_counter()
        _, stats = run(data, queries, cfg)
        elapsed = time.perf_counter() - t0
        print(
            f"{stats.data_count:>8} {stats.query_count:>8} {stats.expanded_count:>10}"
            f" {stats.elements_processed:>12} {stats.primitive_calls:>6} {elapsed:>9.3f}"
            f" {stats.backend:>8}"
        )
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "run": cmd_run,
        "verify": cmd_verify,
        "gen": cmd_gen,
        "bench": cmd_bench,
    }[args.command]
    try:
        return handler(args)
    except InputError as exc:
        print(f"domscan: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # anything else is a fault of domscan, not of its input
        print(f"domscan: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
