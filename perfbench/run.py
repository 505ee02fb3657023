"""domscan benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the root of a checkout. Each workload execution happens in a
fresh single-process Python (worker.py) that generates the workload's
inputs from the seed, calls the user-level entry point repeatedly until
``--seconds`` have passed (at least three times), and checks a seeded
sample of the answers against ``domscan.oracle.brute_force``.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics: the median wall time of one call, points
per second, peak RSS of the worker process and set-up time (process
start to first call; median over the worker and the fresh processes
it samples between calls). With
``--trace 1`` untraced and traced calls alternate, and it carries the
per-layer metrics measured at the program's module seams (see
tracing.py). ``attempted`` counts sampled answers checked and
``failed`` those that were wrong, a call that raised counting all of
its sampled answers as wrong; a worker that crashes or overruns the
deadline gives ``correct: false`` with every sampled answer failed.

``--workload all`` runs every workload both ways and prints every
metric by name and unit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER
from workloads import SRC, WORKLOADS

WORKER = Path(__file__).resolve().parent / "worker.py"
DEADLINE_S = 170  # a run must end within 180 s

END_TO_END = {"run_s": "s", "points_per_s": "points/s", "peak_rss_mb": "MB", "setup_s": "s"}


def spawn(args: list[str]) -> tuple[dict, float]:
    """Run worker.py to completion; returns its report and when it was started."""
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        stdout=subprocess.PIPE,
        text=True,
        check=True,
        timeout=DEADLINE_S,
    )
    return json.loads(proc.stdout.splitlines()[-1]), started


def measure(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """The result line for one run, and every metric measured, declared or not."""
    w = WORKLOADS[name]
    report, started = spawn(
        ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    )

    if trace:
        measured = report["layers"]
        units = PER_LAYER
        if not report["counts_match"]:
            print(f"{name}: traced per-op counts do not sum to the pipeline's counters", file=sys.stderr)
    else:
        run_s = statistics.median(report["times"])
        measured = {
            "run_s": run_s,
            "points_per_s": w.n_points / run_s,
            "peak_rss_mb": report["peak_rss_mb"],
            "setup_s": statistics.median([report["ready"] - started, *report["setups"]]),
        }
        units = END_TO_END
    measured["wrong_frac"] = report["wrong"] / report["checked"]
    result = {
        "correct": report["wrong"] == 0 and not report["errors"],
        "attempted": report["checked"],
        "failed": report["wrong"],
        "metrics": {k: {"value": measured[k], "unit": u} for k, u in units.items() if k in measured},
    }
    for err in report["errors"]:
        print(f"{name}: call failed: {err}", file=sys.stderr)
    times = report["times"]
    print(
        f"{name} seed={seed} trace={trace}: {len(times)} untraced calls,"
        f" min/median/max {min(times):.3f}/{statistics.median(times):.3f}/{max(times):.3f} s,"
        f" wrong_frac {measured['wrong_frac']}",
        file=sys.stderr,
    )
    return result, measured


def measure_or_fail(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict | None]:
    """:func:`measure`, except that a worker that crashes or overruns the
    deadline gives an incorrect result with every sampled answer failed."""
    try:
        return measure(name, seed, seconds, trace)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"{name}: worker failed: {exc}", file=sys.stderr)
        n = WORKLOADS[name].sample_size
        return {"correct": False, "attempted": n, "failed": n, "metrics": {}}, None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "domscan" / "__init__.py").is_file():
        print(f"perfbench: no domscan sources at {SRC}; run from a checkout", file=sys.stderr)
        return 2

    if args.workload != "all":
        result, _ = measure_or_fail(args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result))
        return 0

    units = {**END_TO_END, **PER_LAYER, "wrong_frac": "ratio"}
    all_correct = True
    for name in WORKLOADS:
        for trace in (0, 1):
            result, measured = measure_or_fail(name, args.seed, args.seconds, trace)
            all_correct = all_correct and result["correct"]
            print(f"== {name} (seed {args.seed}, trace {trace}, correct {result['correct']})")
            for metric, value in (measured or {}).items():
                shown = f"{value:>16}" if isinstance(value, int) else f"{value:>16.6g}"
                print(f"  {metric:<42} {shown} {units.get(metric, '')}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
