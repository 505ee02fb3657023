import math
import random
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backends import BACKENDS, run_on
from domscan.monoids import COUNT, FLOAT_SUM, MAX, MIN, MONOIDS, SUM
from domscan.oracle import brute_force
from domscan.pipeline import (
    PLUMBING_CALLS,
    InputError,
    PipelineConfig,
    Point,
    data_point,
    query_point,
    run,
    run_basic,
    run_improved,
    weights_with_unit,
)
from domscan.primitives import SequentialBackend


def cfg(m, monoid=COUNT, **kw):
    return PipelineConfig(dims=m, monoid=monoid, **kw)


def results_dict(results):
    return {r.id: r.value for r in results}


def fixture_2d():
    data = [data_point(0, (1, 1)), data_point(1, (2, 3)), data_point(2, (3, 2))]
    queries = [query_point(3, (3, 3)), query_point(4, (2, 2)), query_point(5, (4, 4))]
    return data, queries


def random_instance(rng, n_data, n_queries, m, grid=False, weights=(0, 100)):
    coord = (lambda: rng.randrange(5) / 5) if grid else rng.random
    data = [
        data_point(i, tuple(coord() for _ in range(m)), rng.randint(*weights))
        for i in range(n_data)
    ]
    queries = [
        query_point(10_000 + i, tuple(coord() for _ in range(m))) for i in range(n_queries)
    ]
    return data, queries


def test_basic_two_dimensional_counts():
    data, queries = fixture_2d()
    res, stats = run_basic(data, queries, cfg(2))
    assert results_dict(res) == {3: 1, 4: 1, 5: 3}
    assert [r.id for r in res] == [3, 4, 5]
    assert stats.data_count == 3 and stats.query_count == 3


def test_empty_queries():
    data, _ = fixture_2d()
    res, _ = run_basic(data, [], cfg(2))
    assert res == []


def test_empty_data_yields_units():
    _, queries = fixture_2d()
    for monoid in (COUNT, MAX, MIN):
        res, _ = run_basic([], queries, cfg(2, monoid))
        assert all(r.value == monoid.unit for r in res)
        assert len(res) == 3


def test_both_empty():
    res, stats = run_basic([], [], cfg(2))
    assert res == [] and stats.expanded_count == 0


def test_improved_matches_basic_on_fixture():
    data, queries = fixture_2d()
    basic, _ = run_basic(data, queries, cfg(2))
    improved, _ = run_improved(data, queries, cfg(2, variant="improved"))
    assert basic == improved


def test_improved_one_dimension():
    data = [data_point(i, (float(c),)) for i, c in enumerate((1, 2, 3))]
    queries = [query_point(10, (2.0,)), query_point(11, (4.0,))]
    res, _ = run_improved(data, queries, cfg(1, variant="improved"))
    assert results_dict(res) == {10: 1, 11: 3}


def test_improved_one_dimension_tie_is_strict():
    res, _ = run_improved(
        [data_point(0, (5.0,))], [query_point(1, (5.0,))], cfg(1, variant="improved")
    )
    assert results_dict(res) == {1: 0}


def test_variant_dispatch_and_mismatch():
    data, queries = fixture_2d()
    assert run(data, queries, cfg(2))[0] == run_basic(data, queries, cfg(2))[0]
    with pytest.raises(ValueError, match="variant"):
        run_basic(data, queries, cfg(2, variant="improved"))
    with pytest.raises(ValueError, match="variant"):
        run_improved(data, queries, cfg(2))
    with pytest.raises(ValueError, match="variant"):
        run(data, queries, cfg(2, variant="bogus"))


def test_weights_with_unit():
    b = SequentialBackend()
    seq = [data_point(0, (1,), 3), query_point(1, (1,)), data_point(2, (1,), 2)]
    assert weights_with_unit(seq, SUM, b) == [3, 0, 2]
    assert weights_with_unit([query_point(0, (1,))], MAX, b) == [float("-inf")]
    assert weights_with_unit([], SUM, b) == []


def test_strict_dominance_with_shared_coordinates():
    # every data point shares at least one coordinate with the query
    data = [
        data_point(0, (2.0, 1.0)),
        data_point(1, (1.0, 2.0)),
        data_point(2, (2.0, 2.0)),
        data_point(3, (1.0, 1.0)),
    ]
    queries = [query_point(9, (2.0, 2.0))]
    for variant in ("basic", "improved"):
        res, _ = run(data, queries, cfg(2, variant=variant))
        assert results_dict(res) == {9: 1}  # only (1,1) is strictly below


def test_all_coordinates_equal_everywhere():
    data = [data_point(i, (3.0, 3.0), 5) for i in range(4)]
    queries = [query_point(10, (3.0, 3.0))]
    for variant in ("basic", "improved"):
        res, _ = run(data, queries, cfg(2, monoid=SUM, variant=variant))
        assert results_dict(res) == {10: 0}


def test_duplicate_points_each_contribute():
    data = [data_point(0, (1.0, 1.0), 2), data_point(1, (1.0, 1.0), 3)]
    queries = [query_point(5, (2.0, 2.0))]
    res, _ = run_basic(data, queries, cfg(2, monoid=SUM))
    assert results_dict(res) == {5: 5}


def test_one_dimensional_reduction_matches_sorted_prefix():
    rng = random.Random(11)
    values = [rng.randrange(20) / 2 for _ in range(60)]
    data = [data_point(i, (v,), 1) for i, v in enumerate(values)]
    queries = [query_point(1000 + i, (rng.randrange(20) / 2,)) for i in range(40)]
    # direct check: fold weights of strictly smaller values on a sorted copy
    svals = sorted(values)
    prefix = list(accumulate([1] * len(svals)))

    def below(q):
        lo, hi = 0, len(svals)
        while lo < hi:
            mid = (lo + hi) // 2
            if svals[mid] < q:
                lo = mid + 1
            else:
                hi = mid
        return prefix[lo - 1] if lo else 0

    expected = {q.id: below(q.coords[0]) for q in queries}
    for variant in ("basic", "improved"):
        res, _ = run(data, queries, cfg(1, variant=variant))
        assert results_dict(res) == expected


def test_count_is_monotone_in_the_query():
    rng = random.Random(3)
    data, _ = random_instance(rng, 80, 0, 3)
    queries = [query_point(500, (0.3, 0.4, 0.5)), query_point(501, (0.6, 0.7, 0.9))]
    res, _ = run_basic(data, queries, cfg(3))
    got = results_dict(res)
    assert got[500] <= got[501]


def test_extra_queries_do_not_disturb_existing_ones():
    rng = random.Random(7)
    data, queries = random_instance(rng, 50, 20, 2)
    base, _ = run_basic(data, queries, cfg(2))
    more = queries + [query_point(20_000 + i, (rng.random(), rng.random())) for i in range(15)]
    bigger, _ = run_basic(data, more, cfg(2))
    bigger_by_id = results_dict(bigger)
    for r in base:
        assert bigger_by_id[r.id] == r.value


@pytest.mark.parametrize("variant", ["basic", "improved"])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_matches_oracle_on_random_instances(variant, m):
    rng = random.Random(100 * m + (variant == "improved"))
    for trial in range(6):
        grid = trial % 2 == 0
        # the last three trials carry signed weights, so sums can cancel
        weights = (-100, 100) if trial >= 3 else (0, 100)
        data, queries = random_instance(rng, 45, 45, m, grid=grid, weights=weights)
        for monoid in (COUNT, SUM, MAX, MIN):
            expected = brute_force(data, queries, monoid)
            res, stats = run(data, queries, cfg(m, monoid, variant=variant))
            assert {r.id: r.value for r in res} == expected
            bound = (len(data) + len(queries)) * math.prod(stats.widths)
            assert stats.expanded_count <= bound


@pytest.mark.parametrize("variant", ["basic", "improved"])
def test_infinite_coordinates_match_oracle(variant):
    inf = float("inf")
    res, _ = run(
        [data_point(0, (-inf, 1.0), 2)], [query_point(5, (1.0, 2.0))], cfg(2, SUM, variant=variant)
    )
    assert results_dict(res) == {5: 2}
    for m in (1, 2, 3):
        # -inf in every data slot and +inf in every query slot, one at a time
        data = [data_point(k, tuple(-inf if j == k else 0.0 for j in range(m)), k + 1) for k in range(m)]
        queries = [query_point(100 + k, tuple(inf if j == k else 1.0 for j in range(m))) for k in range(m)]
        for monoid in (SUM, MAX):
            res, _ = run(data, queries, cfg(m, monoid, variant=variant))
            assert results_dict(res) == brute_force(data, queries, monoid)
    rng = random.Random(29)
    values = (-inf, 0.0, 0.5, 1.0, inf)
    for trial in range(30):
        m = 1 + trial % 3
        draw = lambda: tuple(rng.choice(values) for _ in range(m))
        data = [data_point(i, draw(), rng.randint(-9, 9)) for i in range(10)]
        queries = [query_point(100 + i, draw()) for i in range(10)]
        for monoid in (COUNT, SUM, MIN):
            res, _ = run(data, queries, cfg(m, monoid, variant=variant))
            assert results_dict(res) == brute_force(data, queries, monoid)


@pytest.mark.parametrize("variant", ["basic", "improved"])
def test_nan_coordinate_is_rejected(variant):
    nan = float("nan")
    data, queries = fixture_2d()
    for slot in (0, 1):
        bad = tuple(nan if j == slot else 1.0 for j in range(2))
        with pytest.raises(ValueError, match="point 7 has a NaN coordinate"):
            run(data + [data_point(7, bad)], queries, cfg(2, variant=variant))
        with pytest.raises(ValueError, match="point 7 has a NaN coordinate"):
            run(data, queries + [query_point(7, bad)], cfg(2, variant=variant))


@pytest.mark.parametrize("variant", ["basic", "improved"])
def test_nan_weight_is_rejected(variant):
    data, queries = fixture_2d()
    bad = data + [data_point(7, (0.5, 0.5), float("nan"))]
    for monoid in MONOIDS.values():
        with pytest.raises(InputError, match="point 7 has a NaN weight"):
            run(bad, queries, cfg(2, monoid, variant=variant))


def test_float_sum_matches_oracle_within_tolerance():
    rng = random.Random(42)
    data, queries = random_instance(rng, 60, 60, 3)
    data = [Point(p.id, p.coords, p.weight + 1 / 3, False) for p in data]
    expected = brute_force(data, queries, FLOAT_SUM)
    for variant in ("basic", "improved"):
        res, _ = run(data, queries, cfg(3, FLOAT_SUM, variant=variant))
        for r in res:
            assert FLOAT_SUM.value_eq(r.value, expected[r.id])


def test_signed_float_sums_cancelling_to_zero_match_oracle():
    # Sums that cancel leave rounding noise around zero (-1.42e-14 against
    # -9.33e-15, say) that no relative tolerance can accept on its own.
    mismatches = []
    for seed in range(40):
        rng = random.Random(seed)
        data, queries = random_instance(rng, 60, 60, 2, weights=(-100, 100))
        data = [Point(p.id, p.coords, p.weight + 1 / 3, False) for p in data]
        expected = brute_force(data, queries, FLOAT_SUM)
        for variant in ("basic", "improved"):
            res, _ = run(data, queries, cfg(2, FLOAT_SUM, variant=variant))
            mismatches += [
                (seed, variant, r.id, r.value, expected[r.id])
                for r in res
                if not FLOAT_SUM.value_eq(r.value, expected[r.id])
            ]
    assert mismatches == []


SMALL_COORDS = (-math.inf, -1.0, 0.0, 0.5, 1.0, math.inf)


@st.composite
def small_instances(draw):
    """At most 12 points over a six-value coordinate set, so ties,
    duplicate points and infinities are common; signed weights."""
    m = draw(st.integers(1, 4))
    ids = draw(st.permutations(range(draw(st.integers(0, 12)))))
    n_data = draw(st.integers(0, len(ids)))
    point = st.tuples(*[st.sampled_from(SMALL_COORDS)] * m)
    data = [data_point(i, draw(point), draw(st.integers(-100, 100))) for i in ids[:n_data]]
    queries = [query_point(i, draw(point)) for i in ids[n_data:]]
    return m, data, queries


@given(small_instances(), st.sampled_from(sorted(MONOIDS)), st.sampled_from(["basic", "improved"]))
@settings(max_examples=300)
def test_matches_oracle_on_small_instances_with_ties(instance, name, variant):
    m, data, queries = instance
    monoid = MONOIDS[name]
    if name == "count":
        data = [Point(p.id, p.coords, 1, False) for p in data]
    elif name == "fsum":
        data = [Point(p.id, p.coords, p.weight + 1 / 3, False) for p in data]
    expected = brute_force(data, queries, monoid)
    for backend in BACKENDS:
        res, _ = run_on(backend, data, queries, cfg(m, monoid, variant=variant))
        assert [r.id for r in res] == sorted(expected)
        assert all(monoid.value_eq(r.value, expected[r.id]) for r in res)


def test_negative_weight_reaches_sum_and_min():
    data = [data_point(0, (1.0,), -5)]
    queries = [query_point(1, (2.0,))]
    for monoid in (SUM, MIN):
        res, _ = run_basic(data, queries, cfg(1, monoid))
        assert results_dict(res) == {1: -5}


def test_validation_errors():
    data, queries = fixture_2d()
    with pytest.raises(ValueError, match="duplicate"):
        run_basic(data + [data_point(3, (9, 9))], queries, cfg(2))
    with pytest.raises(ValueError, match="coordinates"):
        run_basic([data_point(0, (1, 2, 3))], queries, cfg(2))
    with pytest.raises(ValueError, match="dims"):
        run_basic([], [], cfg(0))
    with pytest.raises(ValueError, match="query point"):
        run_basic([query_point(0, (1, 1))], [], cfg(2))
    with pytest.raises(ValueError, match="data point"):
        run_basic([], [data_point(0, (1, 1))], cfg(2))


def test_stats_shape_and_call_counts():
    data, queries = fixture_2d()
    res, stats = run_basic(data, queries, cfg(2))
    assert stats.widths and all(w >= 1 for w in stats.widths)
    assert len(stats.widths) == 2
    assert stats.expanded_count > 0
    assert stats.elements_processed > stats.expanded_count
    assert stats.primitive_calls == 9 * 2 + 10
    _, stats_improved = run_improved(data, queries, cfg(2, variant="improved"))
    assert stats_improved.primitive_calls == 9 * 1 + 10
    assert len(stats_improved.widths) == 1
    for m in (1, 2, 3, 4):
        assert 9 * m + 10 <= 6 * m + 9 + PLUMBING_CALLS


def test_results_are_ascending_by_query_id():
    rng = random.Random(5)
    data, queries = random_instance(rng, 30, 25, 2)
    rng.shuffle(queries)
    res, _ = run_basic(data, queries, cfg(2))
    ids = [r.id for r in res]
    assert ids == sorted(ids)
