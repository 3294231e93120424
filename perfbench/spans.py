"""Span recording for the traced benchmark runs.

The benchmark records spans from outside the program: for the length of
a traced episode it swaps a public function or method of each layer for
a timing wrapper and restores the original afterwards.  The program's
own per-loop timers (``PerfRecorder`` rows, made visible through
``PerfRecorder.trace``) are added as leaf spans.

A span is ``(layer, name, start, end)`` in ``time.perf_counter`` seconds.
Spans of one thread nest, so the span that caused another is the
innermost span containing it; a span's self time is its duration minus
the durations of its direct children.
"""
from __future__ import annotations

import inspect
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Span = Tuple[str, str, float, float]

#: layer of each ``PerfRecorder`` row that is not a backend loop
RECORDER_LAYERS = {"Solve": "fem", "Update_Ghosts": "runtime"}


class Tracer:
    """In-memory span list plus the patches that feed it."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)

    def wrap(self, layer: str, name: str, fn: Callable,
             on_result: Optional[Callable] = None) -> Callable:
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.append((layer, name, t0, clock()))
            if on_result is not None:
                on_result(self, result)
            return result
        return traced

    @contextmanager
    def span(self, layer: str, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((layer, name, t0, time.perf_counter()))

    @contextmanager
    def patched(self, targets: Iterable[tuple]):
        """Wrap every ``(owner, attr, layer, name[, on_result])`` target
        for the duration of the block.  ``owner`` is a module, a class or
        an instance; class- and static methods keep their kind."""
        with ExitStack() as stack:
            for target in targets:
                owner, attr, layer, name = target[:4]
                on_result = target[4] if len(target) > 4 else None
                stack.enter_context(
                    self._patch(owner, attr, layer, name, on_result))
            yield self

    @contextmanager
    def _patch(self, owner, attr: str, layer: str, name: str, on_result):
        raw = inspect.getattr_static(owner, attr)
        own = attr in vars(owner)
        if isinstance(raw, (classmethod, staticmethod)):
            new = staticmethod(self.wrap(layer, name, getattr(owner, attr),
                                         on_result))
        elif isinstance(owner, type):
            new = self.wrap(layer, name, raw, on_result)
        else:
            new = self.wrap(layer, name, getattr(owner, attr), on_result)
        setattr(owner, attr, new)
        try:
            yield
        finally:
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)


def recorder_spans(events: Sequence[tuple]) -> List[Span]:
    """``TraceLog`` events recorded with ``origin=0`` → leaf spans."""
    return [(RECORDER_LAYERS.get(name, "backends"), name, start,
             start + dur) for name, start, dur in events]


class Node:
    __slots__ = ("layer", "name", "start", "end", "children")

    def __init__(self, span: Span):
        self.layer, self.name, self.start, self.end = span
        self.children: List["Node"] = []

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - sum(c.duration for c in self.children)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


def build_forest(spans: Iterable[Span]) -> List[Node]:
    """Nest spans by containment; returns the root nodes in time order.

    A span that only partly overlaps the open one becomes its sibling:
    a recorder row is stamped when the loop's counters are written, a
    little after the loop ended, and may overhang a wrapper that ran
    inside the loop (kernel translation on first use)."""
    roots: List[Node] = []
    stack: List[Node] = []
    for span in sorted(spans, key=lambda s: (s[2], -s[3])):
        node = Node(span)
        while stack and node.end > stack[-1].end:
            stack.pop()
        (stack[-1].children if stack else roots).append(node)
        stack.append(node)
    return roots


def step_roots(spans: Iterable[Span], name: str) -> List[Node]:
    """Span trees of the timed steps called ``name``; the first step
    belongs to set-up (it translates the kernels) and is left out."""
    return [root for root in build_forest(spans) if root.name == name][1:]


def layer_self_times(root: Node) -> Dict[str, float]:
    """Self time per layer below ``root``; the root's own self time is
    the ``remainder`` row, so the rows sum to the root's duration."""
    rows: Dict[str, float] = defaultdict(float)
    for child in root.children:
        for node in child.walk():
            rows[node.layer] += node.self_time
    rows["remainder"] = root.duration - sum(rows.values())
    return dict(rows)


def name_totals(nodes: Iterable[Node], *, self_time: bool) -> Dict[str, float]:
    """Summed duration (or self time) per ``layer.name`` over a subtree."""
    out: Dict[str, float] = defaultdict(float)
    for root in nodes:
        for node in root.walk():
            key = f"{node.layer}.{node.name}"
            out[key] += node.self_time if self_time else node.duration
    return dict(out)


def export(lanes: Dict[str, Sequence[Span]], path) -> None:
    """Write every lane's spans as one Chrome trace (``chrome://tracing``)
    through the program's own exporter."""
    from repro.perf.trace import TraceLog, export_chrome_trace

    starts = [s[2] for spans in lanes.values() for s in spans]
    origin = min(starts) if starts else 0.0
    logs = []
    for spans in lanes.values():
        log = TraceLog(origin=origin)
        for layer, name, t0, t1 in sorted(spans, key=lambda s: s[2]):
            log.record(f"{layer}:{name}", t0, t1 - t0)
        logs.append(log)
    export_chrome_trace(logs, path, lane_names=list(lanes))
