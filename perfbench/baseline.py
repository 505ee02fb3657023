"""Repeat run.py over seeds and report each metric's median and spread.

    python3 perfbench/baseline.py [--workload NAME ...] [--write]

A set is ten runs of a workload, run ``i`` on seed ``i``, each as long as
BENCHMARK.json's ``run_seconds``. A metric's spread is the distance
between its first and third quartile as a share of its median; its
drift is how much worse the second set's median is than the first's,
as a share of the first's. Both are checked against the metric's bound
in BENCHMARK.json (the spread of ``setup_s`` excepted).

Without ``--write`` one set per workload is run and summarised.
``--write`` runs two sets, one run on the held-out seed and one traced
run per workload, prints how far the sets agree, and records everything
with the machine's description in perfbench/baseline.json.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import HELD_OUT_SEED, ROOT, WORKLOADS

HERE = Path(__file__).resolve().parent
RUNS = 10
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = SPEC["run_seconds"]
BOUNDS = {m["name"]: (m["bound"], m["better"]) for m in SPEC["end_to_end"]}


def run_once(name: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def run_set(name: str) -> dict:
    results = [run_once(name, seed, 0) for seed in range(1, RUNS + 1)]
    metrics = {}
    for metric, first in results[0]["metrics"].items():
        values = [r["metrics"][metric]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        metrics[metric] = {
            "unit": first["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median,
            "values": values,
        }
        print(f"{name:<20} {metric:<14} median {median:>12.5g} {first['unit']:<9} spread {(q3 - q1) / median:.4f}")
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "end_to_end": metrics,
    }


def agreement(first: dict, second: dict) -> tuple[dict, bool]:
    """Each metric's spreads and drift, and whether all are within bounds."""
    out, ok = {}, True
    for metric, (bound, better) in BOUNDS.items():
        a, b = first["end_to_end"][metric], second["end_to_end"][metric]
        worse = b["median"] / a["median"] - 1
        drift = worse if better == "lower" else -worse
        spreads = [a["spread"], b["spread"]]
        within = drift <= bound and (metric == "setup_s" or max(spreads) <= bound)
        ok = ok and within
        out[metric] = {"bound": bound, "spreads": spreads, "drift": drift, "within": within}
    return out, ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--write", action="store_true", help="record perfbench/baseline.json")
    args = ap.parse_args(argv)

    record = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy_importable": importlib.util.find_spec("numpy") is not None,
            "arch": platform.machine(),
        },
        "seconds": SECONDS,
        "runs": RUNS,
        "workloads": {},
    }
    all_ok = True
    for name in args.workload or WORKLOADS:
        entry = run_set(name)
        ok = entry["correct"]
        if args.write:
            second = run_set(name)
            checks, agree = agreement(entry, second)
            for metric, c in checks.items():
                print(
                    f"{name:<20} {metric:<14} spreads {c['spreads'][0]:.4f}/{c['spreads'][1]:.4f}"
                    f" drift {c['drift']:+.4f} bound {c['bound']} {'ok' if c['within'] else 'OUT OF BOUND'}"
                )
            held_out = run_once(name, HELD_OUT_SEED, 0)
            traced = run_once(name, 1, 1)
            entry.update(
                correct=ok and second["correct"] and held_out["correct"] and traced["correct"],
                second_set=second,
                agree=agree,
                agreement=checks,
                held_out={"seed": HELD_OUT_SEED, **held_out},
                per_layer={"seed": 1, **traced},
            )
            ok = entry["correct"] and agree
            print(f"{name:<20} sets agree within bounds: {agree}")
        print(f"{name:<20} correct {entry['correct']}, {entry['failed']} wrong of {entry['attempted']} checked")
        record["workloads"][name] = entry
        all_ok = all_ok and ok
    if args.write:
        (HERE / "baseline.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
