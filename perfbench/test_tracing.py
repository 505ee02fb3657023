"""Self-checks of the benchmark: python3 -m pytest perfbench -q

The traced per-op counts must add up exactly to the pipeline's own
counters on every workload shape, repeat exactly for a seed, and the
traced calls must still give the oracle's answers.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import subprocess
import sys

import pytest

from workloads import ROOT, SRC, WORKLOADS, generate, write_csv

sys.path.insert(0, str(SRC))

import tracing  # noqa: E402
import worker  # noqa: E402
import run  # noqa: E402
from run import END_TO_END  # noqa: E402

SMALL = {name: dataclasses.replace(w, n_data=150, n_queries=150) for name, w in WORKLOADS.items()}


def target_for(w, data, queries, tmp_path):
    if w.via_cli:
        return worker.cli_target(w, data, queries, tmp_path)
    return worker.library_target(w, data, queries)


def traced_metrics(w, seed, tmp_path):
    data, queries = generate(w, seed)
    target = target_for(w, data, queries, tmp_path)
    tracer = tracing.Tracer()
    _, out = worker.timed_call(target, tracer)
    assert not isinstance(out, BaseException), out
    answered, stats = target[2](out)
    return tracing.layer_metrics(tracer, stats), answered, data, queries


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_counts_sum_to_pipeline_counters(name, tmp_path):
    import domscan

    w = SMALL[name]
    metrics, answered, data, queries = traced_metrics(w, 3, tmp_path)
    assert tracing.counts_match(metrics)
    assert metrics["pipeline.primitive_calls"] > 0
    again, _, _, _ = traced_metrics(w, 3, tmp_path)
    counts = {k: v for k, v in metrics.items() if isinstance(v, int)}
    assert counts == {k: v for k, v in again.items() if isinstance(v, int)}

    monoid = domscan.MONOIDS[w.monoid]
    expected = domscan.brute_force(data, queries, monoid)
    assert answered.keys() == expected.keys()
    assert all(monoid.value_eq(answered[k], v) for k, v in expected.items())
    if w.via_cli:
        assert metrics["datafiles.read_points.rows"] == w.n_points
        assert metrics["datafiles.bytes_out"] > 0
        assert metrics["cli.self_s"] > 0


def test_missing_seam_leaves_its_metrics_absent(monkeypatch, tmp_path):
    import domscan.cli

    monkeypatch.delattr(domscan.cli, "check_unique_ids")
    metrics, _, _, _ = traced_metrics(SMALL["improved-d3-signed"], 1, tmp_path)
    assert "datafiles.check_unique_ids.s" not in metrics
    assert "datafiles.read_points.s" in metrics
    assert tracing.counts_match(metrics)


def test_seams_are_restored_after_a_traced_call(tmp_path):
    def seams():
        return [getattr(importlib.import_module(m), a) for m, a in tracing.SEAMS]

    before = seams()
    traced_metrics(SMALL["improved-d3-signed"], 1, tmp_path)
    assert seams() == before


def test_inputs_depend_only_on_the_seed(tmp_path):
    w = SMALL["cli-gridded-d2"]
    assert generate(w, 5) == generate(w, 5)
    assert generate(w, 5) != generate(w, 6)
    data, queries = generate(w, 5)
    paths = write_csv(tmp_path, w, data, queries)
    first = [p.read_text() for p in paths]
    write_csv(tmp_path, w, *generate(w, 5))
    assert first == [p.read_text() for p in paths]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }


def test_a_call_that_exits_counts_its_sampled_answers_as_failed(monkeypatch):
    w = SMALL["cli-gridded-d2"]
    data, queries = generate(w, 2)

    def call():
        raise SystemExit(2)  # what the CLI's argument parser does with a bad argument

    monkeypatch.setattr(worker, "setup_seconds", lambda w, seed: 0.5)
    report = worker.measure(w, 2, 0.0, 0, ("cli.main", call, None), data, queries)
    assert report["checked"] == worker.MIN_CALLS * w.sample_size
    assert report["wrong"] == report["checked"]
    assert report["errors"]
    assert report["setups"] == [0.5] * worker.MIN_CALLS


def test_a_crashed_worker_gives_an_incorrect_result(monkeypatch):
    def crash(args):
        raise subprocess.CalledProcessError(1, "worker.py")

    monkeypatch.setattr(run, "spawn", crash)
    result, measured = run.measure_or_fail("improved-d3-signed", 1, 1.0, 0)
    n = WORKLOADS["improved-d3-signed"].sample_size
    assert result == {"correct": False, "attempted": n, "failed": n, "metrics": {}}
    assert measured is None
