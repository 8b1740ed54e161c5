"""Spans recorded from outside the system under test.

A span is ``(id, name, start, end, parent, rid)`` with ``name`` of the
form ``<layer>:<operation>`` (``core.cache:lookup``). Spans are produced
by replacing *bound public methods* on the objects a workload built
(``tracer.wrap(cache, "lookup", "core.cache:lookup")``); nothing inside
``src/`` knows it is being traced. On one thread the parent is the
enclosing wrapped call. Across threads — the load generator hands a
request to the gateway, a scheduler worker picks it up — the parent is
found through :attr:`Tracer.inflight`, a ``prompt -> (rid, span id)`` map
the load generator fills before sending; a thread that cannot resolve a
key keeps the context of the request it resolved last (a shard worker
serves one request at a time, so that is the right one).

Spans stay in memory; :func:`write_trace` dumps them as JSON lines when the
run ends. :class:`Attribution` turns them into per-layer self times: a span's
self time is its duration minus the union of its children.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

Span = Tuple[int, str, float, float, Optional[int], int]

# Layers that queue work: the stretch between such a span's start and its
# first child is waiting, reported as its own ``<name>.queue`` span so that
# the layer's self time is hand-off cost only.
QUEUEING = ("serving.gateway:request", "serving.scheduler:request", "serving.cluster:request")

_clock = time.perf_counter


def first_str(args: tuple) -> Optional[str]:
    """Default inflight key of a wrapped call: its first string argument,
    looking one level into a leading list (``begin_batch(prompts, ...)``)."""
    for arg in args:
        if isinstance(arg, str):
            return arg
        if isinstance(arg, (list, tuple)) and arg and isinstance(arg[0], str):
            return arg[0]
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []  # list.append is atomic under the GIL
        self.inflight: Dict[str, Tuple[int, int]] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    def new_id(self) -> int:
        return next(self._ids)

    def add(
        self, span_id: int, name: str, start: float, end: float, parent: Optional[int], rid: int
    ) -> None:
        self.spans.append((span_id, name, start, end, parent, rid))

    def _context(self, key: Optional[str]) -> Tuple[int, Optional[int]]:
        """(rid, parent) for a call with no enclosing span on its thread."""
        found = self.inflight.get(key) if key is not None else None
        if found is not None:
            self._local.context = found
            return found
        return getattr(self._local, "context", (-1, None))

    def wrap(
        self,
        obj: object,
        method: str,
        name: str,
        key: Callable[[tuple], Optional[str]] = first_str,
    ) -> None:
        """Replace ``obj.method`` with a version that records a span."""
        original = getattr(obj, method)
        local = self._local

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if stack:
                rid, parent = stack[-1]
            else:
                rid, parent = self._context(key(args))
            span_id = next(self._ids)
            stack.append((rid, span_id))
            start = _clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                self.spans.append((span_id, name, start, end, parent, rid))

        setattr(obj, method, traced)

    def wrap_submit(self, obj: object, name: str) -> None:
        """Wrap a future-returning ``submit(prompt, ...)``: the span runs
        from the call to the moment the future resolves, on whichever
        thread that happens, and becomes the parent of whatever the worker
        threads do for that prompt."""
        original = obj.submit

        def traced(prompt, *args, **kwargs):
            rid, parent = self.inflight.get(prompt, (-1, None))
            span_id = next(self._ids)
            self.inflight[prompt] = (rid, span_id)
            start = _clock()
            future = original(prompt, *args, **kwargs)
            future.add_done_callback(
                lambda _f: self.spans.append((span_id, name, start, _clock(), parent, rid))
            )
            return future

        obj.submit = traced


def write_trace(path, windows: Iterable[List[Span]]) -> None:
    """One JSON object per span; ``episode`` tells the windows apart (span
    ids restart with every tracer)."""
    keys = ("id", "name", "start", "end", "parent", "rid")
    with open(path, "w", encoding="utf-8") as handle:
        for episode, spans in enumerate(windows, start=1):
            for span in spans:
                handle.write(json.dumps({"episode": episode, **dict(zip(keys, span))}) + "\n")


def layer_of(name: str) -> str:
    return name.split(":", 1)[0]


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def with_queue_spans(spans: List[Span]) -> List[Span]:
    """Add a ``<name>.queue`` child to every queueing-layer span, covering
    the stretch before its first child starts (all of it when the request
    was shed and never got a child)."""
    first_child: Dict[int, float] = {}
    for _sid, _name, start, _end, parent, _rid in spans:
        if parent is not None and start < first_child.get(parent, float("inf")):
            first_child[parent] = start
    out = list(spans)
    next_id = max((s[0] for s in spans), default=0) + 1
    for sid, name, start, end, _parent, rid in spans:
        if name in QUEUEING:
            until = min(max(first_child.get(sid, end), start), end)
            out.append((next_id, name + ".queue", start, until, sid, rid))
            next_id += 1
    return out


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Self time of every span, by id: duration minus the union of its
    children (overlapping and parallel children are not double-counted)."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _sid, _name, start, end, parent, _rid in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        sid: (end - start) - covered(children.get(sid, ()), start, end)
        for sid, _name, start, end, _parent, _rid in spans
    }


class Attribution:
    """Per-name aggregates over the traced windows of a run. Each window's
    spans are a forest of their own (span ids restart with every tracer)."""

    def __init__(self, windows: Iterable[List[Span]]) -> None:
        self.durations_ms: Dict[str, List[float]] = defaultdict(list)
        self.self_ms: Dict[str, float] = defaultdict(float)
        for spans in windows:
            spans = with_queue_spans(spans)
            selfs = self_times(spans)
            names = {sid: name for sid, name, *_ in spans}
            for sid, name, start, end, parent, _rid in spans:
                self.self_ms[name] += selfs[sid] * 1000.0
                # A wrapped method calling itself (IVF's search_top1_many
                # loops over search_top1) is one operation, not two.
                if names.get(parent) != name:
                    self.durations_ms[name].append((end - start) * 1000.0)

    def calls(self, *names: str) -> int:
        return sum(len(self.durations_ms.get(n, ())) for n in names)

    def durations(self, *names: str) -> List[float]:
        out: List[float] = []
        for n in names:
            out.extend(self.durations_ms.get(n, ()))
        return out

    def layer_self_ms(self) -> Dict[str, float]:
        """Total self time per layer; queue waits are layers of their own
        (``serving.gateway.queue``)."""
        out: Dict[str, float] = defaultdict(float)
        for name, total in self.self_ms.items():
            layer = layer_of(name)
            if name.endswith(".queue"):
                layer += ".queue"
            out[layer] += total
        return dict(out)
