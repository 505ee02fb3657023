import math
import random
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import domscan
from backends import BACKENDS, run_on
from domscan.monoids import COUNT, FLOAT_SUM, MAX, MIN, MONOIDS, SUM
from domscan.oracle import brute_force
from domscan.pipeline import (
    PLUMBING_CALLS,
    InputError,
    PipelineConfig,
    Point,
    PointTable,
    QueryResult,
    data_point,
    point_table,
    query_point,
    run,
)


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
    res, stats = run(data, queries, cfg(2))
    assert results_dict(res) == {3: 1, 4: 1, 5: 3}
    assert [r.id for r in res] == [3, 4, 5]
    assert stats.data_count == 3 and stats.query_count == 3


def test_empty_queries():
    data, _ = fixture_2d()
    res, _ = run(data, [], cfg(2))
    assert res == []


def test_empty_data_yields_units():
    _, queries = fixture_2d()
    for monoid in (COUNT, MAX, MIN):
        res, _ = run([], queries, cfg(2, monoid))
        assert all(r.value == monoid.unit for r in res)
        assert len(res) == 3


def test_both_empty():
    res, stats = run([], [], cfg(2))
    assert res == [] and stats.expanded_count == 0


def test_improved_matches_basic_on_fixture():
    data, queries = fixture_2d()
    basic, _ = run(data, queries, cfg(2))
    improved, _ = run(data, queries, cfg(2, variant="improved"))
    assert basic == improved


def test_improved_one_dimension():
    data = [data_point(i, (float(c),)) for i, c in enumerate((1, 2, 3))]
    queries = [query_point(10, (2.0,)), query_point(11, (4.0,))]
    res, _ = run(data, queries, cfg(1, variant="improved"))
    assert results_dict(res) == {10: 1, 11: 3}


def test_improved_one_dimension_tie_is_strict():
    res, _ = run(
        [data_point(0, (5.0,))], [query_point(1, (5.0,))], cfg(1, variant="improved")
    )
    assert results_dict(res) == {1: 0}


def test_variant_dispatch_and_mismatch():
    data, queries = fixture_2d()
    with pytest.raises(ValueError, match="variant"):
        run(data, queries, cfg(2, variant="bogus"))


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
    res, _ = run(data, queries, cfg(2, monoid=SUM))
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
    res, _ = run(data, queries, cfg(3))
    got = results_dict(res)
    assert got[500] <= got[501]


def test_extra_queries_do_not_disturb_existing_ones():
    rng = random.Random(7)
    data, queries = random_instance(rng, 50, 20, 2)
    base, _ = run(data, queries, cfg(2))
    more = queries + [query_point(20_000 + i, (rng.random(), rng.random())) for i in range(15)]
    bigger, _ = run(data, more, cfg(2))
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
def test_integer_coordinates_past_float_range_answer_as_the_oracle(variant):
    # 10**400 is not NaN (it equals itself) and has no float64 form, so the run
    # goes to seq, as a 2**53 + 1 coordinate does
    data = [data_point(0, (10**400, 0.5), 3), data_point(1, (1, 0.1), 4)]
    queries = [query_point(9, (10**401, 1.0))]
    for monoid, want in ((SUM, 7), (MIN, 3)):
        results, stats = run(data, queries, cfg(2, monoid, variant=variant))
        assert stats.backend == "seq"
        assert results_dict(results) == brute_force(data, queries, monoid) == {9: want}


@pytest.mark.parametrize("variant", ["basic", "improved"])
def test_nan_weight_is_rejected(variant):
    data, queries = fixture_2d()
    bad = data + [data_point(7, (0.5, 0.5), float("nan"))]
    for monoid in MONOIDS.values():
        with pytest.raises(InputError, match="point 7 has a NaN weight"):
            run(bad, queries, cfg(2, monoid, variant=variant))


def test_sums_meeting_a_float_reject_integer_weights_past_float_range():
    """Adding a float to an int past float range raises OverflowError, so
    a library run rejects such weights as the CLI does."""
    huge = 10**400
    mixed = [data_point(0, (0.0,), huge), data_point(1, (0.0,), 1.5)]
    query = [query_point(5, (1.0,))]
    # under fsum the unit 0.0 meets the integer weight even without a float weight
    for data, monoid in ((mixed, SUM), (mixed, FLOAT_SUM), (mixed[:1], FLOAT_SUM)):
        with pytest.raises(InputError, match="point 0: integer weights too large to sum with float weights"):
            run(data, query, cfg(1, monoid))
    # integers alone sum exactly, and max only compares
    assert results_dict(run(mixed[:1], query, cfg(1, SUM))[0]) == {5: huge}
    assert results_dict(run(mixed, query, cfg(1, MAX))[0]) == {5: huge}


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_ragged_point_table_is_rejected(backend):
    query = [query_point(9, (0.9,))]
    short_coords = PointTable([1, 2, 3], [[0.1, 0.2]], [5.0, 6.0, 7.0], False)
    short_weights = PointTable([1, 2, 3], [[0.1, 0.2, 0.3]], [5, 6], False)
    for table in (short_coords, short_weights):
        for monoid in (FLOAT_SUM, SUM, MIN):
            with pytest.raises(InputError, match="columns differ in length"):
                run_on(backend, table, query, cfg(1, monoid))
    with pytest.raises(InputError, match="columns differ in length"):
        run_on(backend, [], PointTable([4, 5], [[0.1]], [None, None], True), cfg(1))


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
        res, _ = run(data, queries, cfg(1, monoid))
        assert results_dict(res) == {1: -5}


def test_validation_errors():
    data, queries = fixture_2d()
    with pytest.raises(ValueError, match="duplicate"):
        run(data + [data_point(3, (9, 9))], queries, cfg(2))
    with pytest.raises(ValueError, match="coordinates"):
        run([data_point(0, (1, 2, 3))], queries, cfg(2))
    with pytest.raises(ValueError, match="dims"):
        run([], [], cfg(0))
    with pytest.raises(ValueError, match="query point"):
        run([query_point(0, (1, 1))], [], cfg(2))
    with pytest.raises(ValueError, match="data point"):
        run([], [data_point(0, (1, 1))], cfg(2))


def test_a_point_table_of_the_wrong_role_or_dimension_is_rejected():
    data = PointTable([1, 2], [[0.1, 0.2], [0.3, 0.4]], [5, 6], False)
    queries = PointTable([3], [[0.5], [0.6]], [None], True)
    with pytest.raises(InputError, match="^data point 1 passed in the query sequence$"):
        point_table(data, True, 2)
    with pytest.raises(InputError, match="^query point 3 passed in the data sequence$"):
        point_table(queries, False, 2)
    with pytest.raises(InputError, match="^point 1 has 2 coordinates, expected 3$"):
        point_table(data, False, 3)
    with pytest.raises(InputError, match="^data point 1 passed in the query sequence$"):
        run([], data, cfg(2))


def test_stats_shape_and_call_counts():
    data, queries = fixture_2d()
    res, stats = run(data, queries, cfg(2))
    assert stats.widths and all(w >= 1 for w in stats.widths)
    assert len(stats.widths) == 2
    assert stats.expanded_count > 0
    assert stats.elements_processed > stats.expanded_count
    assert stats.primitive_calls == 8 * 2 + 13
    _, stats_improved = run(data, queries, cfg(2, variant="improved"))
    assert stats_improved.primitive_calls == 8 * 1 + 13
    assert len(stats_improved.widths) == 1
    for m in (1, 2, 3, 4):
        assert 8 * m + 13 <= 6 * m + 9 + PLUMBING_CALLS
    assert 8 * 4 + 13 > 6 * 4 + 9 + (PLUMBING_CALLS - 1)  # the least allowance that fits


def test_results_are_ascending_by_query_id():
    rng = random.Random(5)
    data, queries = random_instance(rng, 30, 25, 2)
    rng.shuffle(queries)
    res, _ = run(data, queries, cfg(2))
    ids = [r.id for r in res]
    assert ids == sorted(ids)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("variant", ["basic", "improved"])
def test_query_without_copies_gets_the_unit(variant, backend):
    # Query 10 has the smallest first coordinate: rank 1, whose 0-based
    # rank 0 has no one-prefixes, so it expands to no records at all.
    data = [data_point(0, (1.0, 1.0), 5), data_point(1, (2.0, 2.0), 7), data_point(2, (3.0, 0.5), -2)]
    lone = query_point(10, (0.0, 5.0))
    queries = [lone, query_point(11, (5.0, 0.0)), query_point(12, (5.0, 5.0))]
    for name, monoid in MONOIDS.items():
        weighted = [Point(p.id, p.coords, p.weight + 1 / 3 if name == "fsum" else p.weight, False) for p in data]
        c = cfg(2, monoid, variant=variant)
        res, _ = run_on(backend, weighted, queries, c)
        assert results_dict(res) == brute_force(weighted, queries, monoid)
        assert repr(res[0]) == repr(QueryResult(10, monoid.unit)), name
        assert repr(res[1]) == repr(QueryResult(11, monoid.unit)), name
        # a twin leaves every rank as it is and adds as many records as the query has
        twin = query_point(13, lone.coords)
        sizes = [run_on(backend, weighted, qs, c)[1].expanded_count for qs in ([lone], [lone, twin])]
        assert sizes[0] == sizes[1]


@pytest.mark.parametrize("backend", BACKENDS)
def test_improved_tie_order_against_id_order_still_answers_by_id(backend):
    # The improved variant orders points by their last coordinate, which
    # here falls as the id rises, so the tie order reverses id order.
    rng = random.Random(12)
    data = [data_point(i, (rng.random(), rng.random()), rng.randint(-9, 9)) for i in range(30)]
    queries = [query_point(100 + i, (rng.random(), 1.0 - i / 20)) for i in range(20)]
    for monoid in (COUNT, SUM, MIN, MAX):
        res, _ = run_on(backend, data, queries, cfg(2, monoid, variant="improved"))
        assert [r.id for r in res] == list(range(100, 120))
        assert results_dict(res) == brute_force(data, queries, monoid)


@pytest.mark.parametrize("backend", BACKENDS)
def test_query_results_is_exported(backend):
    results, _ = run_on(backend, [data_point(0, (1.0,), 2)], [query_point(1, (2.0,))], cfg(1, SUM))
    assert isinstance(results, domscan.QueryResults) and "QueryResults" in domscan.__all__


def test_result_object_contract():
    data, queries = fixture_2d()
    want = [QueryResult(3, 1), QueryResult(4, 1), QueryResult(5, 3)]
    reprs = set()
    for backend in BACKENDS:
        for variant in ("basic", "improved"):
            res, _ = run_on(backend, data, queries[::-1], cfg(2, variant=variant))
            assert len(res) == 3
            assert res[0] == want[0] and res[-1] == want[-1] and res[1].value == 1
            assert type(res[0]) is QueryResult and type(res[0].id) is int and type(res[0].value) is int
            assert list(res) == want and res[1:] == want[1:]
            assert res == want and want == res and res == [(3, 1), (4, 1), (5, 3)]
            assert res != want[:2] and res != [QueryResult(3, 1), QueryResult(4, 2), QueryResult(5, 3)]
            reprs.add(repr(res))
            empty, _ = run_on(backend, data, [], cfg(2, variant=variant))
            assert empty == [] and len(empty) == 0 and list(empty) == []
            assert repr(empty) == "QueryResults([])"
    assert reprs == {f"QueryResults({want!r})"}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("variant", ["basic", "improved"])
def test_dropping_unit_partials_keeps_every_answer_exact(variant, backend):
    # The regroup sees only query rows whose partial is not the unit, in
    # type and value. Signed zeros under sum (whose unit is the int 0),
    # dyadic float sums, whose every order of addition is exact, and
    # infinite min/max weights equal to a unit all come out repr-equal.
    rng = random.Random(f"unit partials {variant}")
    cases = [
        (SUM, (-0.0, 0.0)),
        (FLOAT_SUM, (-0.0, 0.0, 0.5, -0.5, 0.25, -0.25)),
        (MIN, (-math.inf, math.inf, 0.5, -1.5)),
        (MAX, (-math.inf, math.inf, 0.5, -1.5)),
    ]
    for trial in range(12):
        m = 1 + trial % 3
        for monoid, weights in cases:
            point = lambda: tuple(rng.randrange(4) / 4 for _ in range(m))  # noqa: E731
            data = [data_point(i, point(), rng.choice(weights)) for i in range(20)]
            queries = [query_point(100 + i, point()) for i in range(20)]
            expected = brute_force(data, queries, monoid)
            res, _ = run_on(backend, data, queries, cfg(m, monoid, variant=variant))
            assert [(r.id, repr(r.value)) for r in res] == [(i, repr(expected[i])) for i in sorted(expected)], monoid.name


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("variant", ["basic", "improved"])
def test_no_data_and_queries_at_the_lowest_coordinate(variant, backend):
    # Every query has rank 1 in the first dimension, so nothing expands and
    # the regroup filter runs over no rows (at d=1 the improved variant
    # ranks nothing and expands each query once, its partial the unit).
    for m in (1, 2, 3):
        queries = [query_point(i, (-math.inf,) * m) for i in range(3)]
        ranked = m - 1 if variant == "improved" else m
        for name, monoid in MONOIDS.items():
            res, stats = run_on(backend, [], queries, cfg(m, monoid, variant=variant))
            assert [(r.id, repr(r.value)) for r in res] == [(i, repr(monoid.unit)) for i in range(3)], name
            assert stats.primitive_calls == 8 * ranked + 13
            assert stats.regrouped_count == 0
