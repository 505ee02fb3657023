"""One execution of one workload, in a fresh process started by run.py.

Prints one JSON line: the monotonic clock reading at which set-up ended,
the wall time of every user-level call, the set-up times of fresh
processes sampled between the calls, how many sampled answers were
checked and how many were wrong, the process's peak RSS and, with
``--trace 1``, the per-layer metrics.

The program runs with its defaults: the pipeline and the CLI get only
the dimension count, the monoid and the variant, and garbage collection
is left as shipped.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
from workloads import (
    SRC,
    WORK,
    WORKLOADS,
    count_wrong,
    generate,
    parse_results,
    sample_queries,
    write_csv,
)

MIN_CALLS = 3  # untraced calls per run, however short --seconds is
MIN_TRACED = 2  # of each kind, traced and untraced, in a traced run


def library_target(w, data, queries):
    import domscan

    cfg = domscan.PipelineConfig(dims=w.dims, monoid=domscan.MONOIDS[w.monoid], variant=w.variant)

    def call():
        return domscan.run(data, queries, cfg)

    def answers(out):
        return {r.id: r.value for r in out[0]}, out[1]

    return "domscan.run", call, answers


def cli_target(w, data, queries, workdir: Path):
    import domscan.cli

    data_path, query_path = write_csv(workdir, w, data, queries)
    out_path = workdir / "results.csv"
    argv = [
        "run", str(data_path), str(query_path),
        "--dim", str(w.dims), "--monoid", w.monoid, "--variant", w.variant,
        "--output", str(out_path),
    ]

    def call():
        code = domscan.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"domscan run exited with status {code}")

    def answers(_):
        return parse_results(out_path), None

    return "cli.main", call, answers


def timed_call(target, tracer=None):
    """``(seconds, result)`` of one call, the result being the exception
    if the call raised (``SystemExit`` too, as the CLI's argument parser
    raises it). With a tracer, spans are recorded at every seam
    under a root span named after the target."""
    root_name, call, _ = target
    if tracer is not None:
        saved = tracing.install(tracer)
        root = tracer.open(root_name)
    t0 = time.perf_counter()
    try:
        out = call()
    except (Exception, SystemExit) as exc:  # a failing call is a failed operation, not a crash
        out = exc
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.close(root)
        tracing.uninstall(saved)
    return elapsed, out


def setup_seconds(w, seed) -> float:
    """Set-up time of a fresh worker process: from its start until it is ready."""
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", w.name, "--seed", str(seed), "--setup-only"],
        stdout=subprocess.PIPE,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])["ready"] - started


def measure(w, seed, seconds, trace, target, data, queries) -> dict:
    """Call ``target`` until ``seconds`` have passed, then check the sampled answers.

    In an untraced run a fresh process's set-up time is also sampled
    after every call, outside the timed calls but within ``seconds``,
    so the samples spread over the run as the calls do: the host's
    speed drifts on a scale of seconds.
    """
    import domscan

    answers = target[2]
    sample = sample_queries(w, seed, queries)
    sample_ids = [q.id for q in sample]
    untraced: list[float] = []
    traced: list[float] = []
    setups: list[float] = []
    got: list = []  # sampled answers per call, None where the call raised
    layers: list[dict] = []
    errors: list[str] = []
    counts_ok = True
    tracer = None
    started = time.perf_counter()
    while True:
        enough = (
            min(len(untraced), len(traced)) >= MIN_TRACED if trace else len(untraced) >= MIN_CALLS
        )
        if enough and time.perf_counter() - started >= seconds:
            break
        tracing_this = trace and len(traced) < len(untraced)
        if tracing_this:
            tracer = tracing.Tracer()
        elapsed, out = timed_call(target, tracer if tracing_this else None)
        (traced if tracing_this else untraced).append(elapsed)
        if not trace:
            setups.append(setup_seconds(w, seed))
        if isinstance(out, BaseException):
            errors.append(repr(out))
            got.append(None)
            continue
        answered, stats = answers(out)
        got.append({qid: answered[qid] for qid in sample_ids if qid in answered})
        if tracing_this:
            metrics = tracing.layer_metrics(tracer, stats)
            counts_ok = counts_ok and tracing.counts_match(metrics)
            layers.append(metrics)

    t0 = time.perf_counter()
    monoid = domscan.MONOIDS[w.monoid]
    expected = domscan.brute_force(data, sample, monoid)
    oracle_s = time.perf_counter() - t0
    wrong = sum(len(sample) if g is None else count_wrong(expected, g, monoid) for g in got)

    report = {
        "times": untraced,
        "setups": setups,
        "checked": len(sample) * len(got),
        "wrong": wrong,
        "errors": errors[:5],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        keys = dict.fromkeys(k for m in layers for k in m)
        merged = {k: _median([m[k] for m in layers if k in m]) for k in keys}
        merged["oracle.brute_force.s"] = oracle_s
        merged["oracle.checked_queries"] = len(sample)
        merged["trace.overhead_frac"] = (
            statistics.median(traced) - statistics.median(untraced)
        ) / statistics.median(untraced)
        report["layers"] = merged
        report["counts_match"] = counts_ok and bool(layers)
        if tracer is not None:
            spans_path = WORK / f"spans-{w.name}-seed{seed}.json"
            spans_path.write_text(json.dumps(tracer.to_json(), indent=1) + "\n")
    return report


def _median(values):
    # Counts stay exact integers; times take the ordinary median.
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help="stop once set-up is done")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    w = WORKLOADS[args.workload]
    data, queries = generate(w, args.seed)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        if w.via_cli:
            target = cli_target(w, data, queries, workdir)
        else:
            target = library_target(w, data, queries)
        report = {"ready": time.monotonic()}
        if not args.setup_only:
            report.update(measure(w, args.seed, args.seconds, args.trace, target, data, queries))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
