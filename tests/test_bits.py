import random
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from domscan.bits import (
    bin_fixed,
    dominance_witness,
    field_offsets,
    key_bits,
    one_prefix_list,
    one_prefixes,
    prefix_code,
    prefix_codes,
    zero_prefix_list,
    zero_prefixes,
)

bitstrings = st.integers(1, 12).flatmap(
    lambda w: st.integers(0, 2**w - 1).map(lambda n: bin_fixed(n, w))
)


def test_bin_fixed():
    assert bin_fixed(5, 4) == "0101"
    assert bin_fixed(0, 3) == "000"
    with pytest.raises(ValueError, match="does not fit"):
        bin_fixed(8, 3)
    with pytest.raises(ValueError):
        bin_fixed(1, 0)


def test_zero_prefixes():
    assert zero_prefixes("01010") == {"0101", "01", ""}
    assert zero_prefixes("111") == set()
    assert zero_prefixes("") == set()


def test_one_prefixes():
    assert one_prefixes("101") == {"", "10"}
    assert one_prefixes("000") == set()
    assert one_prefixes("") == set()


def test_prefix_lists_are_ordered_by_length():
    assert zero_prefix_list("01010") == ["", "01", "0101"]
    assert one_prefix_list("1101") == ["", "1", "110"]


def test_dominance_witness():
    assert dominance_witness(("011",), ("101",)) == ("",)
    assert dominance_witness(("101",), ("011",)) is None
    assert dominance_witness(("0", "0"), ("1", "1")) == ("", "")
    with pytest.raises(ValueError, match="width"):
        dominance_witness(("01",), ("011",))
    with pytest.raises(ValueError, match="arity"):
        dominance_witness(("01",), ("01", "01"))


@given(bitstrings)
def test_prefix_sets_partition_positions(x):
    assert len(zero_prefixes(x)) + len(one_prefixes(x)) == len(x)
    assert zero_prefixes(x).isdisjoint(one_prefixes(x))


@given(st.integers(1, 12), st.data())
def test_shared_prefix_iff_strictly_smaller(width, data):
    x = data.draw(st.integers(0, 2**width - 1))
    y = data.draw(st.integers(0, 2**width - 1))
    shared = zero_prefixes(bin_fixed(x, width)) & one_prefixes(bin_fixed(y, width))
    assert len(shared) == (1 if x < y else 0)


def test_witness_agrees_with_full_product_enumeration():
    rng = random.Random(20240211)
    for _ in range(300):
        m = rng.randint(1, 4)
        widths = [rng.randint(1, 5) for _ in range(m)]
        xv = [rng.randrange(2**w) for w in widths]
        yv = [rng.randrange(2**w) for w in widths]
        xb = tuple(bin_fixed(v, w) for v, w in zip(xv, widths))
        yb = tuple(bin_fixed(v, w) for v, w in zip(yv, widths))
        full = set(product(*(zero_prefix_list(s) for s in xb))) & set(
            product(*(one_prefix_list(s) for s in yb))
        )
        witness = dominance_witness(xb, yb)
        if all(a < b for a, b in zip(xv, yv)):
            assert len(full) == 1
            assert witness == next(iter(full))
        else:
            assert full == set()
            assert witness is None


def string_code(prefix: str, width: int) -> int:
    return prefix_code(int(prefix or "0", 2), len(prefix), width)


@given(st.integers(1, 12), st.data())
def test_prefix_codes_code_the_prefix_lists(width, data):
    x = data.draw(st.integers(0, 2**width - 1))
    s = bin_fixed(x, width)
    assert prefix_codes(x, width, 0) == [string_code(p, width) for p in zero_prefix_list(s)]
    assert prefix_codes(x, width, 1) == [string_code(p, width) for p in one_prefix_list(s)]
    ones = prefix_codes(x, width, 1)
    assert ones == sorted(set(ones))  # one-prefix codes increase with length
    assert all(0 < c < 2 ** (width + 1) for c in prefix_codes(x, width, 0) + ones)


def test_prefix_code_is_one_to_one():
    width = 5
    codes = {
        string_code(format(p, f"0{n}b") if n else "", width)
        for n in range(width + 1)
        for p in range(2**n)
    }
    assert len(codes) == 2 ** (width + 1) - 1


def test_packed_keys_share_exactly_the_dominance_witness():
    rng = random.Random(77)
    for _ in range(300):
        widths = [rng.randint(1, 5) for _ in range(rng.randint(1, 3))]
        offsets = field_offsets(widths)
        xv = [rng.randrange(2**w) for w in widths]
        yv = [rng.randrange(2**w) for w in widths]

        def keys(values, bit):
            lists = [[c << o for c in prefix_codes(v, w, bit)] for v, w, o in zip(values, widths, offsets)]
            return [sum(t) for t in product(*lists)]

        shared = set(keys(xv, 0)) & set(keys(yv, 1))
        assert len(shared) == (1 if all(a < b for a, b in zip(xv, yv)) else 0)
        query_keys = keys(yv, 1)
        assert query_keys == sorted(set(query_keys))  # emitted in increasing order
        assert all(k < 2 ** key_bits(widths) for k in query_keys)


def test_field_offsets():
    assert field_offsets([3, 1, 2]) == [5, 3, 0]
    assert field_offsets([]) == []
    assert key_bits([3, 1, 2]) == 9
