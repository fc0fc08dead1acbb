"""In-process traced ``linepart combine``: spans and counts per layer.

Each public function of a layer is wrapped where its caller looks it up
(``pipeline`` imports most of them by name; ``cli`` calls ``io`` and
``refine`` through the module). A wrapper records a span (id, name, start,
end, parent) in memory and, for some functions, counts taken from the
arguments and the result. ``analyse`` turns the spans into the per-layer
metrics; self time is a span minus the union of its children's intervals,
so overlapping children from worker threads are not counted twice.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, owner, attr: str, name, count=None) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``name`` is the span name, or a function of (args, kwargs) giving
        it; ``count(counts, name, args, kwargs, result)`` adds counters.
        """
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            stack = self._stack()
            # A worker thread's first span belongs to the main thread's
            # open span, the call that handed the work out.
            parent = stack[-1] if stack else (
                self._main_stack[-1] if self._main_stack else None
            )
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(
                    Span(sid, span_name, start, end, parent, threading.get_ident())
                )
            if count is not None:
                count(self.counts, span_name, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, fn))

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()


def _arg(args, kwargs, index: int, key: str):
    return args[index] if len(args) > index else kwargs[key]


def _count_levels(counts, name, args, kwargs, result):
    counts[f"{name}.levels"] += len(result[1].levels)


def _count_rounds(counts, name, args, kwargs, result):
    counts[f"{name}.rounds"] += result.round


def _count_moved_ranks(counts, name, args, kwargs, result):
    before = _arg(args, kwargs, 1, "o")
    counts[f"{name}.moved"] += int(np.count_nonzero(result.rank_of != before.rank_of))


def _count_windows(counts, name, args, kwargs, result):
    # Rows are (window, old local cut, new local cut or old if rejected,
    # vertices moved); a rejected window and an accepted no-op read alike,
    # so "accepted" counts windows whose row shows a gain or a move.
    rows = result[2]
    counts[f"{name}.windows"] += len(rows)
    counts[f"{name}.accepted"] += sum(1 for _, old, new, moved in rows if new < old or moved)
    counts[f"{name}.moved"] += sum(row[3] for row in rows)


def _count_feasible(counts, name, args, kwargs, result):
    counts[f"{name}.feasible"] += int(result.feasible)


def _count_report(counts, name, args, kwargs, result):
    counts["pipeline.iterations"] += result.iterations
    counts["pipeline.converged"] += int(result.converged)
    counts["pipeline.stage_rejections"] += sum("rejected" in r.note for r in result.records)
    counts["pipeline.initial_cut_fraction"] += result.initial_cut_fraction


def install(tracer: Tracer) -> None:
    """Wrap every traced function of the ``linepart`` package in ``sys.path``."""
    from linepart import boundary, cli, io, maxflow, pipeline, refine

    tracer.wrap(io, "load_graph", "io.load_graph")
    tracer.wrap(io, "write_partition", "io.write_partition")
    tracer.wrap(cli, "combine", "pipeline.combine", _count_report)
    tracer.wrap(pipeline, "common_neighbors_similarity", "graph.common_neighbors_similarity")
    tracer.wrap(pipeline, "cut_weight", "graph.cut_weight")
    tracer.wrap(pipeline, "affinity_ordering", "ordering.affinity_ordering", _count_levels)
    tracer.wrap(pipeline, "hilbert_ordering", "ordering.hilbert_ordering")
    tracer.wrap(pipeline, "random_ordering", "ordering.random_ordering")
    tracer.wrap(refine, "minla_refine", "refine.minla_refine", _count_rounds)
    tracer.wrap(refine, "rank_swap_round", "refine.rank_swap_round", _count_moved_ranks)
    tracer.wrap(
        pipeline, "apply_window_stage",
        lambda a, kw: f"boundary.{_arg(a, kw, 3, 'method')}", _count_windows,
    )
    tracer.wrap(boundary, "mincut_window", "boundary.mincut_window")
    tracer.wrap(pipeline, "contract_blocks", "boundary.contract_blocks")
    tracer.wrap(pipeline, "dp_partition", "boundary.dp_partition", _count_feasible)
    tracer.wrap(maxflow.FlowNetwork, "max_flow", "maxflow.max_flow")


# Span names whose total seconds (".s") and call count (".calls") are
# reported, and the extra counters; every key is always present, zero when
# the workload never calls the function.
TIMED = (
    "io.load_graph", "io.write_partition",
    "graph.common_neighbors_similarity", "graph.cut_weight",
    "ordering.affinity_ordering", "ordering.hilbert_ordering", "ordering.random_ordering",
    "refine.minla_refine", "refine.rank_swap_round",
    "boundary.mincut", "boundary.linopt", "boundary.contract_blocks", "boundary.dp_partition",
    "maxflow.max_flow", "pipeline.combine",
)
CALLS = (
    "graph.cut_weight", "refine.minla_refine", "refine.rank_swap_round",
    "boundary.dp_partition", "maxflow.max_flow",
)
COUNTS = (
    "ordering.affinity_ordering.levels", "refine.minla_refine.rounds",
    "refine.rank_swap_round.moved",
    "boundary.mincut.windows", "boundary.mincut.accepted", "boundary.mincut.moved",
    "boundary.linopt.windows", "boundary.linopt.accepted", "boundary.linopt.moved",
    "boundary.dp_partition.feasible",
    "pipeline.iterations", "pipeline.converged", "pipeline.stage_rejections",
)


def _union(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds per span name not covered by the span's children."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += (s.end - s.start) - _union(children[s.id])
    return dict(out)


def analyse(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the recorded spans and counts."""
    total = defaultdict(float)
    calls = Counter()
    for s in tracer.spans:
        total[s.name] += s.end - s.start
        calls[s.name] += 1
    metrics: dict[str, float] = {f"{n}.s": total[n] for n in TIMED}
    metrics.update({f"{n}.calls": calls[n] for n in CALLS})
    metrics.update({n: tracer.counts[n] for n in COUNTS})
    # Summed over worker threads: against the wall of boundary.mincut this
    # shows what the thread pool overlaps.
    metrics["boundary.mincut_window.busy_s"] = total["boundary.mincut_window"]
    metrics["pipeline.self_s"] = self_times(tracer.spans).get("pipeline.combine", 0.0)
    metrics["pipeline.initial_cut_fraction"] = tracer.counts["pipeline.initial_cut_fraction"]
    return metrics
