import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from domscan.monoids import COUNT, FLOAT_SUM, MAX, MIN, MONOIDS, SUM

ints = st.integers(min_value=-(10**6), max_value=10**6)
floats = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
DISCRETE = [COUNT, SUM, MAX, MIN]


@pytest.mark.parametrize("monoid", DISCRETE, ids=lambda m: m.name)
@given(a=ints, b=ints, c=ints)
def test_discrete_monoid_laws(monoid, a, b, c):
    f = monoid.combine
    assert f(a, f(b, c)) == f(f(a, b), c)
    assert f(a, b) == f(b, a)
    assert f(a, monoid.unit) == a
    assert f(monoid.unit, a) == a


@given(a=floats, b=floats, c=floats)
def test_float_sum_laws(a, b, c):
    f = FLOAT_SUM.combine
    assert FLOAT_SUM.value_eq(f(a, f(b, c)), f(f(a, b), c))
    assert f(a, b) == f(b, a)
    assert f(a, FLOAT_SUM.unit) == a


def test_value_eq_exact_for_discrete():
    assert SUM.value_eq(3, 3)
    assert not SUM.value_eq(3, 3 + 1)
    assert MAX.value_eq(float("-inf"), float("-inf"))


def test_value_eq_tolerance_for_float_sum():
    assert FLOAT_SUM.value_eq(1.0, 1.0 + 1e-12)
    assert not FLOAT_SUM.value_eq(1.0, 1.0 + 1e-6)
    assert FLOAT_SUM.value_eq(0.0, 0.0)
    # rounding noise of a sum that cancels to zero
    assert FLOAT_SUM.value_eq(-1.42e-14, -9.33e-15)
    assert not FLOAT_SUM.value_eq(0.0, 1e-6)


def test_units_are_neutral_for_min_max():
    assert MAX.combine(MAX.unit, 5) == 5
    assert MIN.combine(MIN.unit, 5) == 5
    assert math.isinf(MAX.unit) and MAX.unit < 0
    assert math.isinf(MIN.unit) and MIN.unit > 0


def test_registry_names():
    assert set(MONOIDS) == {"count", "sum", "fsum", "min", "max"}
    for name, monoid in MONOIDS.items():
        assert monoid.name == name
