"""Running the pipeline on a chosen backend.

``"seq"`` forces the sequential backend by replacing the pipeline's
``make_backend`` seam; ``"numpy"`` leaves the seam alone, so the numpy
backend runs wherever it accepts the input and the sequential one
everywhere else. The seam is swapped by hand rather than with pytest's
``monkeypatch`` so that the helpers also work in the acceptance suite's
worker processes.
"""

from __future__ import annotations

import importlib.util
from contextlib import contextmanager

from domscan import pipeline
from domscan.primitives import SequentialBackend

HAVE_NUMPY = importlib.util.find_spec("numpy") is not None
BACKENDS = ("seq", "numpy") if HAVE_NUMPY else ("seq",)


@contextmanager
def backend_seam(make):
    """Run with ``make`` as the pipeline's ``make_backend``."""
    saved = pipeline.make_backend
    pipeline.make_backend = make
    try:
        yield
    finally:
        pipeline.make_backend = saved


def run_on(backend: str, data, queries, cfg):
    """``pipeline.run`` on ``backend``; returns ``(results, stats)``."""
    if backend == "numpy":
        return pipeline.run(data, queries, cfg)
    with backend_seam(lambda *args, **kwargs: SequentialBackend()):
        return pipeline.run(data, queries, cfg)


def expected_backend(backend: str, monoid) -> str:
    """The backend that runs on ``backend`` for the integer-weighted,
    float-coordinate instances the suites generate."""
    return "numpy" if backend == "numpy" and monoid.ufunc is not None else "seq"
