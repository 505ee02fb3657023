"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

The two heavy suites (the 100-seed equivalence matrix and the
input-order determinism sweep) fan out over a small process pool; all seeds
are fixed, so every run is deterministic. The matrix, the call-count test
and the determinism sweep run every instance on each backend (see
``backends.py``); the matrix computes the oracle once per instance.
"""

import math
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from itertools import chain, product
from pathlib import Path

from backends import BACKENDS, expected_backend, run_on
from domscan.bits import bin_fixed, one_prefix_list, one_prefixes, zero_prefix_list, zero_prefixes
from domscan.cli import EXIT_OK, main
from domscan.datafiles import generate_instance
from domscan.monoids import MONOIDS
from domscan.oracle import brute_force
from domscan.pipeline import PLUMBING_CALLS, PipelineConfig, Point, run
from domscan.primitives import SequentialBackend

DATA_DIR = Path(__file__).parent / "data"
# one extra worker over the core count harvests scheduler slack on
# contended hosts; measured faster than an exact-fit pool here
WORKERS = (os.cpu_count() or 1) + 1

MATRIX_SEEDS = 100
MATRIX_N = 100
DIMS = (1, 2, 3, 4)
MONOID_NAMES = ("count", "sum", "max", "min", "fsum")


def _report(capsys, name, failures, elapsed=None):
    status = "FAIL" if failures else "PASS"
    suffix = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    with capsys.disabled():
        print(f"[acceptance] {name}: {status}{suffix}")
    assert not failures, f"{name}: first failures: {failures[:5]}"


def _adapt_weights(data, monoid_name):
    if monoid_name == "count":
        return [Point(p.id, p.coords, 1, False) for p in data]
    if monoid_name == "fsum":
        # non-dyadic weights, so a change in summation order would round
        # differently
        return [Point(p.id, p.coords, p.weight + 1 / 3, False) for p in data]
    return data


def _matrix_block(seeds):
    failures = []
    for seed in seeds:
        # the float monoid rides along on half the seeds; the discrete
        # monoids run the full set
        names = MONOID_NAMES if seed % 2 == 0 else MONOID_NAMES[:4]
        for m in DIMS:
            data_raw, queries = generate_instance(MATRIX_N, MATRIX_N, m, seed=seed * 41 + m)
            for name in names:
                monoid = MONOIDS[name]
                data = _adapt_weights(data_raw, name)
                expected = brute_force(data, queries, monoid)
                for variant, backend in product(("basic", "improved"), BACKENDS):
                    cfg = PipelineConfig(dims=m, monoid=monoid, variant=variant)
                    results, stats = run_on(backend, data, queries, cfg)
                    if stats.backend != expected_backend(backend, monoid):
                        failures.append((seed, m, name, variant, backend, "ran on", stats.backend))
                    if len(results) != len(queries):
                        failures.append((seed, m, name, variant, backend, "missing results"))
                        continue
                    for r in results:
                        if not monoid.value_eq(r.value, expected[r.id]):
                            failures.append((seed, m, name, variant, backend, r.id))
    return failures


def test_oracle_equivalence_matrix(capsys):
    t0 = time.time()
    blocks = [range(i, MATRIX_SEEDS, 20) for i in range(20)]
    with ProcessPoolExecutor(max_workers=WORKERS) as pool:
        failures = list(chain.from_iterable(pool.map(_matrix_block, blocks)))
    _report(capsys, "oracle equivalence matrix", failures, time.time() - t0)


def test_segmented_scan_and_prefix_set_examples(capsys):
    failures = []
    b = SequentialBackend()
    got = b.segmented_scan([1, 2, 3, 4, 5, 6], [0, 0, 1, 1, 1, 2], MONOIDS["sum"])
    if got != [1, 3, 3, 7, 12, 6]:
        failures.append(("segmented_scan", got))
    if zero_prefixes("01010") != {"0101", "01", ""}:
        failures.append(("zero_prefixes", zero_prefixes("01010")))
    _report(capsys, "worked examples", failures)


def test_prefix_intersection_lemma_properties(capsys):
    rng = random.Random(1009)
    failures = []
    for trial in range(10_000):
        width = rng.randint(1, 16)
        x = rng.randrange(2**width)
        y = rng.randrange(2**width)
        shared = zero_prefixes(bin_fixed(x, width)) & one_prefixes(bin_fixed(y, width))
        if len(shared) != (1 if x < y else 0):
            failures.append(("pair", trial, width, x, y))
    for trial in range(2_000):
        m = rng.randint(1, 4)
        widths = [rng.randint(1, 8) for _ in range(m)]
        xv = [rng.randrange(2**w) for w in widths]
        yv = [rng.randrange(2**w) for w in widths]
        xb = [bin_fixed(v, w) for v, w in zip(xv, widths)]
        yb = [bin_fixed(v, w) for v, w in zip(yv, widths)]
        full = set(product(*(zero_prefix_list(s) for s in xb))) & set(
            product(*(one_prefix_list(s) for s in yb))
        )
        want = 1 if all(a < b for a, b in zip(xv, yv)) else 0
        if len(full) != want:
            failures.append(("tuple", trial, widths, xv, yv))
    _report(capsys, "prefix intersection properties", failures)


def test_expansion_bounds(capsys):
    t0 = time.time()
    failures = []
    for total, m in product((2**8, 2**10, 2**12), (2, 3)):
        data, queries = generate_instance(total // 2, total - total // 2, m, seed=500 + total + m)
        sizes = {}
        for variant in ("basic", "improved"):
            cfg = PipelineConfig(dims=m, monoid=MONOIDS["count"], variant=variant)
            _, stats = run(data, queries, cfg)
            bound = total * math.prod(stats.widths)
            if stats.expanded_count > bound:
                failures.append((total, m, variant, stats.expanded_count, bound))
            sizes[variant] = (stats.expanded_count, stats.widths)
        last_width = sizes["basic"][1][-1]
        ratio = sizes["improved"][0] / sizes["basic"][0]
        if ratio > 2 / last_width + 0.01:
            failures.append((total, m, "ratio", ratio, 2 / last_width))
    _report(capsys, "expansion bounds", failures, time.time() - t0)


def _count_calls(job):
    total, m, variant, backend = job
    data, queries = generate_instance(total // 2, total - total // 2, m, seed=900 + m)
    cfg = PipelineConfig(dims=m, monoid=MONOIDS["count"], variant=variant)
    _, stats = run_on(backend, data, queries, cfg)
    return job, stats.primitive_calls


def test_operation_count_depends_only_on_dimension(capsys):
    t0 = time.time()
    jobs = list(product((2**8, 2**12), DIMS, ("basic", "improved"), BACKENDS))
    with ProcessPoolExecutor(max_workers=WORKERS) as pool:
        counts = dict(pool.map(_count_calls, jobs))
    failures = []
    for m, variant, backend in product(DIMS, ("basic", "improved"), BACKENDS):
        small = counts[(2**8, m, variant, backend)]
        large = counts[(2**12, m, variant, backend)]
        ranked = m - 1 if variant == "improved" else m
        if small != large:
            failures.append((m, variant, backend, "count varies with n", small, large))
        if large != counts[(2**12, m, variant, "seq")]:
            failures.append((m, variant, backend, "count differs from seq", large))
        if large != 9 * ranked + 10:
            failures.append((m, variant, backend, "count is not 9r+10", large))
        if large > 6 * m + 9 + PLUMBING_CALLS:
            failures.append((m, variant, backend, "over budget", large))
    _report(capsys, "operation count is a function of dimension", failures, time.time() - t0)


def _determinism_block(indices):
    failures = []
    rotation = ("count", "sum", "min", "max")
    for i in indices:
        data_raw, queries = generate_instance(1000, 1000, 3, seed=3000 + i)
        names = [rotation[i % 4]] + (["fsum"] if i % 5 == 0 else [])
        for name in names:
            monoid = MONOIDS[name]
            data = _adapt_weights(data_raw, name)
            shuffled_data, shuffled_queries = data[:], queries[:]
            rng = random.Random(i)
            rng.shuffle(shuffled_data)
            rng.shuffle(shuffled_queries)
            for variant, backend in product(("basic", "improved"), BACKENDS):
                cfg = PipelineConfig(dims=3, monoid=monoid, variant=variant)
                outs = [
                    # repr is exact for floats and tells -0.0 from 0.0 and
                    # 0 from 0.0, so equal lists mean bitwise-equal results
                    [(r.id, repr(r.value)) for r in run_on(backend, d, q, cfg)[0]]
                    for d, q in ((data, queries), (shuffled_data, shuffled_queries))
                ]
                if outs[0] != outs[1]:
                    diff = next(((a, b) for a, b in zip(*outs) if a != b), "lengths differ")
                    failures.append((i, name, variant, backend, diff))
    return failures


def test_input_order_determinism(capsys):
    t0 = time.time()
    blocks = [range(i, 50, 6) for i in range(6)]
    with ProcessPoolExecutor(max_workers=WORKERS) as pool:
        failures = list(chain.from_iterable(pool.map(_determinism_block, blocks)))
    _report(capsys, "input-order determinism", failures, time.time() - t0)


def test_degenerate_and_tie_suites(capsys):
    from domscan.pipeline import data_point, query_point

    failures = []
    instances = {
        "all equal": (
            [data_point(i, (2.0, 2.0), 3) for i in range(5)],
            [query_point(10, (2.0, 2.0)), query_point(11, (3.0, 3.0))],
        ),
        "data equal to queries": (
            [data_point(0, (1.0, 2.0)), data_point(1, (2.0, 1.0)), data_point(2, (1.0, 1.0))],
            [query_point(5, (1.0, 2.0)), query_point(6, (2.0, 2.0))],
        ),
        "empty data": ([], [query_point(0, (1.0, 1.0))]),
        "empty queries": ([data_point(0, (1.0, 1.0))], []),
        "single pair": ([data_point(0, (0.5, 0.5))], [query_point(1, (1.0, 1.0))]),
    }
    for label, (data, queries) in instances.items():
        for name in ("count", "sum"):
            monoid = MONOIDS[name]
            expected = brute_force(data, queries, monoid)
            for variant, backend in product(("basic", "improved"), BACKENDS):
                cfg = PipelineConfig(dims=2, monoid=monoid, variant=variant)
                results, _ = run_on(backend, data, queries, cfg)
                got = {r.id: r.value for r in results}
                if got != expected:
                    failures.append((label, name, variant, backend, got, expected))
    _report(capsys, "degenerate and tie suites", failures)


def test_cli_golden_fixture(tmp_path, capsys):
    failures = []
    fixture = [str(DATA_DIR / "dom2d_data.csv"), str(DATA_DIR / "dom2d_queries.csv")]
    out = tmp_path / "out.csv"
    if main(["run", *fixture, "--output", str(out)]) != EXIT_OK:
        failures.append("run exit code")
    elif out.read_bytes() != (DATA_DIR / "dom2d_expected.csv").read_bytes():
        failures.append(("output bytes", out.read_text()))
    for variant in ("basic", "improved"):
        if main(["verify", *fixture, "--variant", variant]) != EXIT_OK:
            failures.append(("verify", variant))
    capsys.readouterr()
    _report(capsys, "cli golden fixture", failures)
