"""Spans around the program's layer boundaries, recorded from outside it.

Only the traced run uses this module. It replaces module attributes at
a fixed set of seams with timing wrappers and puts the originals back
afterwards, so the untraced run depends on no seam. A seam the program
no longer has is skipped, and the metrics of its layer are then absent
rather than an error.

A span records name, start, end, the index of its parent span and a
call index: the span's ordinal among same-named spans of one traced
call. The pipeline's call order is fixed for a given dimension, so the
call index identifies the call site. Spans stay in memory; the caller
writes them out when the run ends.
"""

from __future__ import annotations

import importlib
import os
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from operator import ne
from time import perf_counter

# Backend operations reported one by one; any other public backend
# method is still traced and counted, so the count check stays exact.
OPS = (
    "sort",
    "flatmap",
    "map",
    "zip",
    "concat",
    "scan",
    "exclusive_scan",
    "shift",
    "broadcast_max",
    "segmented_scan",
    "segmented_broadcast_last",
)

SEAMS = (
    ("domscan.pipeline", "make_backend"),
    ("domscan.pipeline", "rank_dimension"),
    ("domscan.pipeline", "binarize"),
    ("domscan.cli", "read_points"),
    ("domscan.cli", "check_unique_ids"),
    ("domscan.cli", "run"),
    ("domscan.cli", "write_results"),
)

PHASES = ("rank", "expand", "sort", "aggregate", "project")

# Per-layer metrics and their units, in report order.
PER_LAYER = {
    **{f"pipeline.{p}_s": "s" for p in PHASES},
    "pipeline.unphased_s": "s",
    "pipeline.expanded_tuples": "count",
    "pipeline.expansion_vs_bound": "ratio",
    "pipeline.primitive_calls": "count",
    "pipeline.elements_processed": "count",
    **{
        f"primitives.{op}.{stat}": unit
        for op in OPS
        for stat, unit in (("s", "s"), ("calls", "count"), ("elements", "count"))
    },
    "primitives.segmented_scan.mean_run_len": "elements",
    "ranks.rank_dimension.s": "s",
    "ranks.rank_dimension.self_s": "s",
    "ranks.binarize.s": "s",
    "ranks.unique_values": "count",
    "ranks.width_bits": "bits",
    "datafiles.read_points.s": "s",
    "datafiles.read_points.rows": "count",
    "datafiles.check_unique_ids.s": "s",
    "datafiles.write_results.s": "s",
    "datafiles.bytes_in": "bytes",
    "datafiles.bytes_out": "bytes",
    "cli.self_s": "s",
    "oracle.brute_force.s": "s",
    "oracle.checked_queries": "count",
    "trace.overhead_frac": "ratio",
}


@dataclass
class Span:
    name: str
    parent: int | None
    call_index: int
    start: float = 0.0
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder for one traced call."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._ordinal: Counter = Counter()

    def open(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else None, self._ordinal[name])
        self._ordinal[name] += 1
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording each call as a span. ``after(span, args,
        result)`` takes counts once the span's clock has stopped."""

        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(span, args, result)
            return result

        return traced

    def to_json(self) -> list[dict]:
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "call_index": s.call_index,
                **{k: v for k, v in s.info.items() if k not in ("stats", "tag_list")},
            }
            for s in self.spans
        ]


def _primitive_counts(span, args, result):
    # The same tally as CountingBackend: every sequence argument plus the output.
    span.info["elements"] = sum(len(a) for a in args if hasattr(a, "__len__")) + len(result)
    if span.name == "primitives.segmented_scan":
        # Counting the runs takes a pass over the tags. It is left to
        # layer_metrics, after the traced call, so that its time lands
        # in none of the pipeline's phase timers.
        span.info["tag_list"] = args[1]


def _count_runs(span) -> None:
    tags = span.info.pop("tag_list", None)
    if tags is not None:
        span.info["tags"] = len(tags)
        span.info["runs"] = (1 + sum(map(ne, islice(tags, 1, None), tags))) if tags else 0


class TracedBackend:
    """Proxy recording a span per backend operation."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if name.startswith("_") or name == "close" or not callable(attr):
            return attr
        return self._tracer.wrap(f"primitives.{name}", attr, _primitive_counts)


def _rank_counts(span, args, result):
    span.info["unique"] = result[1]


def _binarize_counts(span, args, result):
    span.info["width"] = len(result[0]) if result else 0


def _file_counts(span, args, result):
    path = args[0]
    if result is not None:
        span.info["rows"] = len(result)
    span.info["bytes"] = os.path.getsize(path) if path is not None else 0


def _stats_of(span, args, result):
    span.info["stats"] = result[1]


def install(tracer: Tracer) -> list:
    """Put timing wrappers at every seam present; returns what :func:`uninstall` restores."""
    hooks = {
        "make_backend": lambda fn: lambda *a, **k: TracedBackend(fn(*a, **k), tracer),
        "rank_dimension": lambda fn: tracer.wrap("ranks.rank_dimension", fn, _rank_counts),
        "binarize": lambda fn: tracer.wrap("ranks.binarize", fn, _binarize_counts),
        "read_points": lambda fn: tracer.wrap("datafiles.read_points", fn, _file_counts),
        "check_unique_ids": lambda fn: tracer.wrap("datafiles.check_unique_ids", fn),
        "run": lambda fn: tracer.wrap("pipeline.run", fn, _stats_of),
        "write_results": lambda fn: tracer.wrap("datafiles.write_results", fn, _file_counts),
    }
    saved = []
    for module_name, attr in SEAMS:
        try:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
        except (ImportError, AttributeError):
            tracer.missing.add(attr)
            continue
        saved.append((module, attr, original))
        setattr(module, attr, hooks[attr](original))
    return saved


def uninstall(saved: list) -> None:
    for module, attr, original in saved:
        setattr(module, attr, original)


def layer_metrics(tracer: Tracer, stats) -> dict:
    """Per-layer metrics of one traced call whose root span is ``tracer.spans[0]``.

    ``stats`` is the call's ``ExpansionStats`` when the caller has it;
    otherwise it is taken from the ``pipeline.run`` span. Layers whose
    seams are missing are left out. Call it once the traced call has
    returned: it finishes the counts deferred until then.
    """
    spans = tracer.spans
    named: dict[str, list[Span]] = {}
    child_seconds = [0.0] * len(spans)
    for s in spans:
        _count_runs(s)
        named.setdefault(s.name, []).append(s)
        if s.parent is not None:
            child_seconds[s.parent] += s.seconds

    def total(name, key=None):
        group = named.get(name, [])
        if key is None:
            return sum((s.seconds for s in group), 0.0)
        return sum(s.info[key] for s in group)

    def present(*seams):
        return not tracer.missing.intersection(seams)

    out: dict = {}
    run_spans = named.get("pipeline.run")
    if stats is None and run_spans:
        stats = run_spans[-1].info["stats"]
    if stats is not None:
        pipeline_s = run_spans[-1].seconds if run_spans else spans[0].seconds
        phases = stats.phase_seconds
        out.update({f"pipeline.{p}_s": v for p, v in phases.items()})
        out["pipeline.unphased_s"] = pipeline_s - sum(phases.values())
        bound = stats.data_count + stats.query_count
        for w in stats.widths:
            bound *= w
        out["pipeline.expanded_tuples"] = stats.expanded_count
        out["pipeline.expansion_vs_bound"] = stats.expanded_count / bound if bound else 0.0
        out["pipeline.primitive_calls"] = stats.primitive_calls
        out["pipeline.elements_processed"] = stats.elements_processed

    if present("make_backend"):
        traced_ops = {n.split(".", 1)[1] for n in named if n.startswith("primitives.")}
        for op in sorted({*OPS, *traced_ops}):
            name = f"primitives.{op}"
            out[f"{name}.s"] = total(name)
            out[f"{name}.calls"] = len(named.get(name, []))
            out[f"{name}.elements"] = total(name, "elements")
        runs = total("primitives.segmented_scan", "runs")
        out["primitives.segmented_scan.mean_run_len"] = (
            total("primitives.segmented_scan", "tags") / runs if runs else 0.0
        )

    if present("rank_dimension"):
        out["ranks.rank_dimension.s"] = total("ranks.rank_dimension")
        out["ranks.rank_dimension.self_s"] = sum(
            s.seconds - child_seconds[i]
            for i, s in enumerate(spans)
            if s.name == "ranks.rank_dimension"
        )
        out["ranks.unique_values"] = total("ranks.rank_dimension", "unique")
    if present("binarize"):
        out["ranks.binarize.s"] = total("ranks.binarize")
        out["ranks.width_bits"] = total("ranks.binarize", "width")

    if present("read_points"):
        out["datafiles.read_points.s"] = total("datafiles.read_points")
        out["datafiles.read_points.rows"] = total("datafiles.read_points", "rows")
        out["datafiles.bytes_in"] = total("datafiles.read_points", "bytes")
    if present("check_unique_ids"):
        out["datafiles.check_unique_ids.s"] = total("datafiles.check_unique_ids")
    if present("write_results"):
        out["datafiles.write_results.s"] = total("datafiles.write_results")
        out["datafiles.bytes_out"] = total("datafiles.write_results", "bytes")
    out["cli.self_s"] = spans[0].seconds - child_seconds[0] if spans[0].name == "cli.main" else 0.0
    return out


def counts_match(metrics: dict) -> bool:
    """Per-op calls and elements sum exactly to the pipeline's own counters."""
    calls = sum(v for k, v in metrics.items() if k.startswith("primitives.") and k.endswith(".calls"))
    elements = sum(v for k, v in metrics.items() if k.startswith("primitives.") and k.endswith(".elements"))
    return (
        calls == metrics.get("pipeline.primitive_calls")
        and elements == metrics.get("pipeline.elements_processed")
    )
