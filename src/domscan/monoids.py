"""Aggregation monoids used by scans and the dominance pipeline.

A monoid here is a commutative, associative combine function with a
unit. The unit doubles as the weight assigned to query points, so they
never disturb an aggregation, and as the answer for queries that
dominate nothing.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Monoid:
    """Commutative aggregation with a neutral element.

    ``tolerance`` is the relative error admitted when comparing two
    aggregated values, and also the absolute difference admitted, so
    that sums cancelling to rounding noise around zero compare equal;
    zero means exact equality. Floating-point addition is only
    approximately associative, so the float-sum monoid carries a
    nonzero tolerance.

    ``ufunc`` names the numpy ufunc whose ``accumulate`` computes the
    same scan exactly on integer columns; monoids without one run only
    on the sequential backend.
    """

    name: str
    combine: Callable[[Any, Any], Any]
    unit: Any
    tolerance: float = 0.0
    ufunc: str | None = None

    def value_eq(self, a: Any, b: Any) -> bool:
        """Equality between two aggregation results under this monoid.
        Two NaNs (a sum of ``+inf`` and ``-inf``) are equal, and NaN
        against any other value is not."""
        if a != a:
            return b != b
        if self.tolerance:
            return math.isclose(a, b, rel_tol=self.tolerance, abs_tol=self.tolerance)
        return a == b


COUNT = Monoid("count", operator.add, 0, ufunc="add")
SUM = Monoid("sum", operator.add, 0, ufunc="add")
# No ufunc: a vector float sum adds in a different order than the sequential fold.
FLOAT_SUM = Monoid("fsum", operator.add, 0.0, tolerance=1e-9)
MAX = Monoid("max", max, float("-inf"), ufunc="maximum")
MIN = Monoid("min", min, float("inf"), ufunc="minimum")

MONOIDS = {m.name: m for m in (COUNT, SUM, FLOAT_SUM, MAX, MIN)}
