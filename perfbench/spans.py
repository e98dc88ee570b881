"""Phase spans recorded from outside the program.

A :class:`Tracer` wraps module-level names and class attributes of the
library (``repro.core.hlbub.engine_improve_lb``, ``ArrayBFS.run``,
``CoreService.query_core_number``, ...) with timing wrappers while it is
installed, and restores the originals on :meth:`Tracer.uninstall`.  Nothing
under ``src/`` knows it is being traced.

Two kinds of wrappers exist:

* **Spans** around phase-level calls.  Each span records name, layer,
  start, end, parent span, thread and the run id, plus the delta of the
  ``Counters`` sink the call received (when it received a real one).
* **Leaf tallies** around single-source BFS runs, which happen hundreds of
  thousands of times per decomposition.  They are not spans: their time,
  call count and visit count are added to the innermost open span, which
  keeps memory flat and the tracing overhead small.

Spans stay in memory and are written once, at the end of the run, in
Chrome trace-event JSON (loadable in Perfetto or ``chrome://tracing``).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from time import perf_counter
from typing import Callable, Dict, List, Optional

from repro.instrumentation import NULL_COUNTERS

#: Counter fields whose per-span delta is recorded.
COUNTER_FIELDS = ("bfs_calls", "vertices_visited", "hdegree_computations",
                  "hdegree_decrements", "bucket_moves")

#: Span names of bulk h-degree passes: leaf BFS runs under them are part of
#: the pass, not single-source traversals.
BULK_SPANS = frozenset({"CSREngine.bulk_h_degrees"})

#: Layers in report order (the library's module boundaries).
LAYERS = ("graph", "runtime", "traversal", "bounds", "peeling", "parallel",
          "dynamic", "serve")


class Span:
    """One timed call.  ``leaf_*`` tally the BFS runs made directly in it."""

    __slots__ = ("id", "name", "layer", "start", "end", "parent", "thread",
                 "args", "children", "in_bulk", "leaf_s", "leaf_n",
                 "leaf_visits")

    def __init__(self, span_id: int, name: str, layer: str,
                 parent: Optional["Span"], thread: int) -> None:
        self.id = span_id
        self.name = name
        self.layer = layer
        self.parent = parent
        self.thread = thread
        self.args: Dict[str, object] = {}
        self.children: List["Span"] = []
        self.in_bulk = name in BULK_SPANS or (parent is not None
                                              and parent.in_bulk)
        self.leaf_s = 0.0
        self.leaf_n = 0
        self.leaf_visits = 0
        self.start = 0.0
        self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus child spans and minus the BFS runs tallied here."""
        return (self.duration - sum(c.duration for c in self.children)
                - self.leaf_s)

    def counter_delta(self, field: str) -> int:
        return self.args.get(field, 0)  # type: ignore[return-value]


class Tracer:
    """Install timing wrappers; collect spans until :meth:`uninstall`."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.t0 = perf_counter()
        self.spans: List[Span] = []
        self.engines: List[object] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------ #
    # span bookkeeping
    # ------------------------------------------------------------------ #
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def reset(self) -> None:
        """Forget recorded spans (e.g. those made during set-up)."""
        self.spans = []

    def span_wrapper(self, fn: Callable, name: str, layer: str,
                     on_exit: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span = Span(next(tracer._ids), name, layer, parent,
                        threading.get_ident())
            counters = kwargs.get("counters")
            if counters is NULL_COUNTERS:
                counters = None
            if counters is not None:
                before = [getattr(counters, f) for f in COUNTER_FIELDS]
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent.children.append(span)
                tracer.spans.append(span)
            if counters is not None:
                for field, value in zip(COUNTER_FIELDS, before):
                    span.args[field] = getattr(counters, field) - value
            if on_exit is not None:
                on_exit(span, args, result)
            return result

        return wrapper

    def leaf_wrapper(self, fn: Callable, visits: Callable) -> Callable:
        """Tally time, calls and ``visits(result)`` into the open span."""
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = perf_counter()
            result = fn(*args, **kwargs)
            elapsed = perf_counter() - started
            stack = getattr(local, "stack", None)
            if stack:
                top = stack[-1]
                top.leaf_s += elapsed
                top.leaf_n += 1
                top.leaf_visits += visits(result)
            return result

        return wrapper

    # ------------------------------------------------------------------ #
    # patching
    # ------------------------------------------------------------------ #
    def _patch(self, owner, attr: str, make: Callable) -> None:
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def span(self, owner, attr: str, layer: str,
             on_exit: Optional[Callable] = None) -> None:
        label = f"{owner.__name__}.{attr}" if isinstance(owner, type) else attr
        self._patch(owner, attr,
                    lambda fn: self.span_wrapper(fn, label, layer, on_exit))

    def leaf(self, owner, attr: str, visits: Callable) -> None:
        self._patch(owner, attr, lambda fn: self.leaf_wrapper(fn, visits))

    def install(self) -> "Tracer":
        """Wrap every layer boundary the benchmark reports on."""
        import repro.core.backends as backends
        import repro.core.bounds as bounds
        import repro.core.decomposition as decomposition
        import repro.core.hlb as hlb
        import repro.core.hlbub as hlbub
        import repro.dynamic.engine as dynamic_engine
        from repro.dynamic.engine import DynamicKHCore
        from repro.graph.csr import CSRGraph
        from repro.parallel.pool import SharedMemoryExecutor
        from repro.resilience.supervisor import SupervisedExecutor
        from repro.runtime.context import ExecutionContext
        from repro.serve.service import CoreService
        from repro.traversal.array_bfs import ArrayBFS

        def note_engine(span, args, engine):
            span.args["engine"] = engine.name
            self.engines.append(engine)

        def note_bulk(span, args, degrees):
            span.args["sources"] = len(degrees)
            span.args["visits"] = sum(degrees.values())

        def note_improve(span, args, result):
            alive, _min_degree = result
            span.args["candidates"] = len(args[2])
            span.args["survivors"] = len(alive)

        def note_update(span, args, summary):
            span.args["mode"] = summary.mode

        # runtime: the facade (root of every decomposition), engine
        # resolution and the context's bulk dispatch.
        for module in (decomposition, dynamic_engine):
            self.span(module, "core_decomposition", "runtime")
        self.span(backends, "resolve_engine", "runtime",
                  on_exit=note_engine)
        self.span(ExecutionContext, "bulk_h_degrees", "runtime")
        # graph: CSR snapshot builds, full and delta.
        self.span(CSRGraph, "from_graph", "graph")
        self.span(CSRGraph, "rebuilt", "graph")
        # traversal: bulk passes as spans, single-source BFS as leaves.
        self.span(backends.CSREngine, "bulk_h_degrees", "traversal",
                  on_exit=note_bulk)
        self.leaf(ArrayBFS, "run", visits=int)
        try:
            from repro.traversal.numpy_bfs import NumpyBFS
        except ImportError:  # NumPy missing: the numpy engine never runs
            pass
        else:
            self.leaf(NumpyBFS, "run", visits=int)
        self.leaf(dynamic_engine, "h_bounded_neighbors", visits=len)
        # core.bounds and core.peeling, wherever the algorithm modules import
        # them.
        for module in (hlbub, hlb):
            self.span(module, "engine_lb1", "bounds")
            self.span(module, "engine_lb2", "bounds")
            self.span(module, "core_decomp", "peeling")
        self.span(bounds, "engine_lb1", "bounds")
        self.span(hlbub, "engine_upper_bound", "bounds")
        self.span(hlbub, "engine_improve_lb", "bounds", on_exit=note_improve)
        # parallel / resilience: process-pool dispatch and pool teardown.
        self.span(SupervisedExecutor, "bulk_h_degrees", "parallel",
                  on_exit=note_bulk)
        self.span(SharedMemoryExecutor, "bulk_h_degrees", "parallel",
                  on_exit=note_bulk)
        self.span(backends.CSREngine, "close", "parallel")
        # dynamic maintenance.
        self.span(DynamicKHCore, "apply_batch", "dynamic",
                  on_exit=note_update)
        self.span(dynamic_engine, "repeel_region", "dynamic")
        # serve: every query method plus the writer-side update.
        for attr in sorted(vars(CoreService)):
            if attr.startswith("query_") or attr == "apply_updates_sync":
                self.span(CoreService, attr, "serve")
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # aggregation
    # ------------------------------------------------------------------ #
    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def bfs_calls(self, span: Span) -> int:
        """BFS traversals started inside ``span`` (bulk sources included)."""
        if span.name in BULK_SPANS:
            return int(span.args.get("sources", 0))
        return span.leaf_n + sum(self.bfs_calls(c) for c in span.children)

    def visits(self, span: Span) -> int:
        if span.name in BULK_SPANS:
            return int(span.args.get("visits", 0))
        return span.leaf_visits + sum(self.visits(c) for c in span.children)

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.named(name))

    # ------------------------------------------------------------------ #
    # export
    # ------------------------------------------------------------------ #
    def write_chrome_trace(self, path: str, metadata: Dict[str, object]) -> None:
        """Write all spans as Chrome trace-event JSON (complete events)."""
        events = []
        for span in self.spans:
            args = dict(span.args)
            args.update(span_id=span.id, run_id=self.run_id,
                        parent=span.parent.id if span.parent else None)
            if span.leaf_n:
                args.update(bfs_runs=span.leaf_n,
                            bfs_ms=round(span.leaf_s * 1e3, 3),
                            bfs_visits=span.leaf_visits)
            events.append({
                "name": span.name, "cat": span.layer, "ph": "X",
                "ts": round((span.start - self.t0) * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "pid": 1, "tid": span.thread, "args": args,
            })
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": metadata}, handle)
