"""domscan: sequence primitives and dominance aggregation built on them.

The :mod:`domscan.primitives` backend provides sort, map, flatmap, zip,
prefix scans and segmented scans over immutable ordered sequences; the
:mod:`domscan.pipeline` module composes exactly those operations into
aggregation over dominated points in any fixed dimension, checked
against the independent :mod:`domscan.oracle`.
"""

from .monoids import COUNT, FLOAT_SUM, MAX, MIN, MONOIDS, SUM, Monoid
from .oracle import brute_force, brute_force_ranks
from .pipeline import (
    ExpansionStats,
    PipelineConfig,
    Point,
    PointTable,
    QueryResult,
    data_point,
    query_point,
    run,
    run_basic,
    run_improved,
)
from .primitives import (
    CountingBackend,
    SequentialBackend,
    make_backend,
)

__version__ = "0.1.0"

__all__ = [
    "COUNT",
    "FLOAT_SUM",
    "MAX",
    "MIN",
    "MONOIDS",
    "SUM",
    "Monoid",
    "CountingBackend",
    "SequentialBackend",
    "make_backend",
    "ExpansionStats",
    "PipelineConfig",
    "Point",
    "PointTable",
    "QueryResult",
    "data_point",
    "query_point",
    "run",
    "run_basic",
    "run_improved",
    "brute_force",
    "brute_force_ranks",
    "__version__",
]
