"""Fixed-width binary encodings and the prefix sets behind dominance tests.

For a bitstring x, ``zero_prefixes(x)`` holds every string v such that
v followed by '0' is a prefix of x, and ``one_prefixes(x)`` the same
with '1'. For equal-width strings exactly one string is shared between
``zero_prefixes(x)`` and ``one_prefixes(y)`` when the value of x is
strictly below that of y, and none otherwise: the shared string is
their longest common prefix, which must continue with 0 in x and 1
in y. Coordinate-wise products of these sets turn strict multi-
dimensional dominance into equality of expanded tuples.
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
