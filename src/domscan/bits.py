"""Fixed-width binary encodings and the prefix sets behind dominance tests.

For a bitstring x, ``zero_prefixes(x)`` holds every string v such that
v followed by '0' is a prefix of x, and ``one_prefixes(x)`` the same
with '1'. For equal-width strings exactly one string is shared between
``zero_prefixes(x)`` and ``one_prefixes(y)`` when the value of x is
strictly below that of y, and none otherwise: the shared string is
their longest common prefix, which must continue with 0 in x and 1
in y. Coordinate-wise products of these sets turn strict multi-
dimensional dominance into equality of expanded tuples.

The pipeline works on integer codes of the same prefixes. A prefix
``p`` of length ``i`` of a ``w``-bit value is coded as
``((p << 1) | 1) << (w - i)``: the prefix, a marker bit, then zeros, in
``w + 1`` bits. The code is one-to-one on (prefix, length) pairs, so two
prefixes share a code exactly when they are the same string. An
expanded tuple packs one code per dimension into a single integer key
(:func:`field_offsets`), the first dimension in the highest bits.
:func:`prefix_code` and :func:`next_bit` use only integer operators, so
they apply elementwise to numpy integer arrays as well.
"""

from __future__ import annotations


def bin_fixed(value: int, width: int) -> str:
    """Binary expansion of ``value`` left-padded with zeros to ``width``.

    >>> bin_fixed(5, 4)
    '0101'
    """
    if width < 1:
        raise ValueError("width must be positive")
    if not 0 <= value < (1 << width):
        raise ValueError(f"{value} does not fit in {width} bits")
    return format(value, f"0{width}b")


def zero_prefix_list(x: str) -> list[str]:
    """Prefixes of ``x`` that are followed by '0', shortest first."""
    return [x[:i] for i in range(len(x)) if x[i] == "0"]


def one_prefix_list(x: str) -> list[str]:
    """Prefixes of ``x`` that are followed by '1', shortest first."""
    return [x[:i] for i in range(len(x)) if x[i] == "1"]


def zero_prefixes(x: str) -> set[str]:
    """All strings v such that v + '0' is a prefix of ``x``.

    >>> sorted(zero_prefixes("01010"))
    ['', '01', '0101']
    """
    return set(zero_prefix_list(x))


def one_prefixes(x: str) -> set[str]:
    """All strings v such that v + '1' is a prefix of ``x``."""
    return set(one_prefix_list(x))


def dominance_witness(x: tuple[str, ...], y: tuple[str, ...]) -> tuple[str, ...] | None:
    """The unique expanded tuple shared by data point ``x`` and query ``y``.

    Present exactly when ``x`` is coordinate-wise strictly below ``y``.
    Both tuples must have the same arity and coordinate-wise equal
    widths.
    """
    if len(x) != len(y):
        raise ValueError(f"arity mismatch: {len(x)} vs {len(y)}")
    parts = []
    for a, b in zip(x, y):
        if len(a) != len(b):
            raise ValueError(f"width mismatch: {a!r} vs {b!r}")
        shared = zero_prefixes(a) & one_prefixes(b)
        if not shared:
            return None
        (part,) = shared
        parts.append(part)
    return tuple(parts)


def prefix_code(prefix, length, width):
    """Integer code of the ``length``-bit ``prefix`` of a ``width``-bit value.

    >>> prefix_code(0b01, 2, 4)  # '01' -> 01 1 00
    12
    """
    return ((prefix << 1) | 1) << (width - length)


def next_bit(x, length, width):
    """The bit of the ``width``-bit value ``x`` that follows its first ``length`` bits."""
    return (x >> (width - 1 - length)) & 1


def prefix_codes(x: int, width: int, bit: int) -> list[int]:
    """Codes of the prefixes of ``x`` followed by ``bit``, shortest first:
    the zero-prefixes of ``x`` for bit 0, its one-prefixes for bit 1.

    Codes of one-prefixes increase with the prefix length (each longer
    prefix keeps a 1 where the shorter one has its marker and adds bits
    below), and codes of zero-prefixes decrease.

    >>> prefix_codes(0b0101, 4, 1)  # '0' -> 0 1 000, '010' -> 010 1 0
    [8, 10]
    """
    return [prefix_code(x >> (width - i), i, width) for i in range(width) if next_bit(x, i, width) == bit]


def field_offsets(widths) -> list[int]:
    """Bit offset of each dimension's code inside a packed key; each field
    is ``width + 1`` bits wide and the first dimension is the highest."""
    offsets = []
    shift = 0
    for w in reversed(widths):
        offsets.append(shift)
        shift += w + 1
    return offsets[::-1]


def key_bits(widths) -> int:
    """Bits a packed key needs: ``sum(w + 1)`` over the dimensions."""
    return sum(w + 1 for w in widths)
