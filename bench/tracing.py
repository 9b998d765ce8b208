"""Spans around the calls into each oddbook module, recorded from outside.

The tracer replaces module attributes (for example
``oddbook.freeness.find_book_at_edge`` or ``oddbook.cli.saturate``) with
wrappers that record one span per call, so calls from one module into
another are captured without editing the package.  Spans stay in memory
and are written out once, when the benchmark ends.

A span's layer is the first part of its name (``freeness`` for
``freeness.saturate``).  Its self time is its duration minus the
durations of its direct children; the program is single-threaded, so
children never overlap and the self times of a job's spans add up to the
job's duration exactly.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

LAYERS = ("graph", "construction", "freeness", "bipartite", "stability", "cli")


def _anchor(witness):
    return witness.anchor if witness is not None else "none"


def _trace_counts(result):
    trace = result[1]
    return {"steps": len(trace.steps), "deleted": trace.deleted_total}


def wrapped_attributes():
    """(module, attribute, span name, extractor of a count from the result).

    A function imported into several modules is wrapped in each namespace
    its callers look it up in; `pattern` is left out because its only work
    is cached behind freeness._pattern_cache.
    """
    from oddbook import bipartite, cli, construction, freeness, graph, stability

    return [
        (cli, "decode_graph6", "graph.decode_graph6", None),
        (graph, "decode_graph6", "graph.decode_graph6", None),
        (cli, "encode_graph6", "graph.encode_graph6", None),
        (graph, "encode_graph6", "graph.encode_graph6", None),
        (cli, "plan_layout", "construction.plan_layout", None),
        (construction, "plan_layout", "construction.plan_layout", None),
        (cli, "build_min_member", "construction.build_min_member", None),
        (construction, "build_min_member", "construction.build_min_member", None),
        (cli, "certify_structure", "construction.certify_structure", None),
        (cli, "edge_bound_check", "construction.edge_bound_check", None),
        (cli, "saturate", "freeness.saturate", None),
        (freeness, "saturate", "freeness.saturate", None),
        (cli, "is_maximal_book_free", "freeness.is_maximal_book_free", None),
        (freeness, "is_maximal_book_free", "freeness.is_maximal_book_free", None),
        (cli, "is_book_free", "freeness.is_book_free", None),
        (freeness, "is_book_free", "freeness.is_book_free", None),
        (freeness, "find_book_using_edge", "freeness.find_book_using_edge", _anchor),
        (stability, "find_book_using_edge", "freeness.find_book_using_edge", _anchor),
        (freeness, "find_book_at_edge", "freeness.find_book_at_edge", None),
        (stability, "_neighbor_orders", "freeness.neighbor_orders", None),
        (cli, "max_induced_complete_bipartite", "bipartite.max_induced_complete_bipartite",
         lambda search: search.nodes),
        (bipartite, "greedy_biclique", "bipartite.greedy_biclique", None),
        (bipartite, "build_uvt_partition", "bipartite.build_uvt_partition",
         lambda result: len(result[1].moves)),
        (cli, "validate_biclique", "bipartite.validate_biclique", None),
        (bipartite, "validate_biclique", "bipartite.validate_biclique", None),
        (stability, "deletion_pipeline", "stability.deletion_pipeline", _trace_counts),
        (stability, "classify_non_edge", "stability.classify_non_edge", None),
    ]


# Counts that must repeat exactly for the same inputs.
DETERMINISTIC = (
    "freeness.probes",
    "freeness.hub_probes",
    "freeness.resolved.hub-hub",
    "freeness.resolved.hub-page",
    "freeness.resolved.page-interior",
    "freeness.resolved.none",
    "bipartite.bnb_nodes",
    "bipartite.partition_moves",
    "stability.classify_calls",
    "stability.steps",
    "stability.deleted_total",
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "info")

    def __init__(self, name, parent, job):
        self.name = name
        self.parent = parent
        self.job = job
        self.start = self.end = 0.0
        self.info = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while installed; `with tracer:` installs the wrappers
    and restores the original attributes on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._t0 = time.perf_counter()

    def __enter__(self):
        for module, attr, name, extract in wrapped_attributes():
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, extract))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def _wrap(self, fn, name, extract):
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if extract is not None:
                span.info = extract(result)
            return result

        return traced

    def span(self, name: str) -> "_Open":
        return _Open(self, name)

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "parent": s.parent, "job": s.job,
                    "start": s.start - self._t0, "end": s.end - self._t0,
                    "info": s.info,
                }) + "\n")


class _Open:
    __slots__ = ("tracer", "span", "index")

    def __init__(self, tracer: Tracer, name: str):
        stack = tracer._stack
        self.tracer = tracer
        self.index = len(tracer.spans)
        self.span = Span(name, stack[-1] if stack else None, tracer.job)

    def __enter__(self) -> Span:
        self.tracer.spans.append(self.span)
        self.tracer._stack.append(self.index)
        self.span.start = time.perf_counter()
        return self.span

    def __exit__(self, *exc):
        self.span.end = time.perf_counter()
        self.tracer._stack.pop()
        return False


def self_times(spans: list[Span], indices: list[int]) -> dict[str, float]:
    """Seconds of self time per layer over the spans at `indices`, which
    must be closed under taking children."""
    own = {i: spans[i].duration for i in indices}
    for i in indices:
        parent = spans[i].parent
        if parent in own:
            own[parent] -= spans[i].duration
    out = dict.fromkeys(LAYERS, 0.0)
    for i, t in own.items():
        layer = spans[i].layer
        out[layer] = out.get(layer, 0.0) + t
    return out


def percentile(values: list[float], q: int) -> float:
    """q-th percentile (1..99); a single value is its own percentile."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans: list[Span], indices: list[int]) -> dict[str, float]:
    """Per-layer totals and counts over the spans at `indices`."""
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    infos: dict[str, list] = {}
    for i in indices:
        s = spans[i]
        total[s.name] = total.get(s.name, 0.0) + s.duration
        calls[s.name] = calls.get(s.name, 0) + 1
        if s.info is not None:
            infos.setdefault(s.name, []).append(s.info)

    def ms(name):
        return total.get(name, 0.0) * 1e3

    probes = [spans[i].duration * 1e6 for i in indices
              if spans[i].name == "freeness.find_book_using_edge"]
    anchors = infos.get("freeness.find_book_using_edge", [])
    pipeline = infos.get("stability.deletion_pipeline", [])
    m = {
        "graph.decode_graph6_ms": ms("graph.decode_graph6"),
        "graph.encode_graph6_ms": ms("graph.encode_graph6"),
        "construction.build_min_member_ms": ms("construction.build_min_member"),
        "construction.certify_structure_ms": ms("construction.certify_structure"),
        "freeness.saturate_ms": ms("freeness.saturate"),
        "freeness.is_maximal_book_free_ms": ms("freeness.is_maximal_book_free"),
        "freeness.is_book_free_ms": ms("freeness.is_book_free"),
        "freeness.probes": len(probes),
        "freeness.hub_probes": calls.get("freeness.find_book_at_edge", 0),
        "freeness.probe_p50_us": percentile(probes, 50),
        "freeness.probe_p99_us": percentile(probes, 99),
    }
    for anchor in ("hub-hub", "hub-page", "page-interior", "none"):
        m[f"freeness.resolved.{anchor}"] = anchors.count(anchor)
    m["freeness.hit_ratio"] = (
        (len(anchors) - anchors.count("none")) / len(anchors) if anchors else 0.0
    )
    m.update({
        "bipartite.max_induced_complete_bipartite_ms":
            ms("bipartite.max_induced_complete_bipartite"),
        "bipartite.greedy_biclique_ms": ms("bipartite.greedy_biclique"),
        "bipartite.bnb_nodes": sum(infos.get("bipartite.max_induced_complete_bipartite", [])),
        "bipartite.build_uvt_partition_ms": ms("bipartite.build_uvt_partition"),
        "bipartite.partition_moves": sum(infos.get("bipartite.build_uvt_partition", [])),
        "stability.classify_calls": calls.get("stability.classify_non_edge", 0),
        "stability.steps": sum(p["steps"] for p in pipeline),
        "stability.deleted_total": sum(p["deleted"] for p in pipeline),
    })
    return m
