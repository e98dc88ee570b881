"""`ExecutionContext`: one object owning how a decomposition executes.

Before this module, every entry point (``h_bz`` / ``h_lb`` / ``h_lb_ub``,
the bounds, the facade, the dynamic engine, the CLI) separately re-threaded
the ``backend=`` / ``executor=`` / worker-count keywords and re-implemented
the same engine-ownership dance (``owned = isinstance(backend, str)`` …
``finally: engine.close()``).  The context collapses all of that into one
place:

* **Engine resolution** — ``backend`` may be a name (``"dict"`` / ``"csr"``
  / ``"auto"``) or a pre-built engine; the context resolves it exactly once
  and remembers whether it owns the result.
* **Executor + workers** — the scheduler name and worker count for the bulk
  h-degree passes, validated once.
* **Counters** — the instrumentation sink every phase records into.
* **Peel-state layout** — ``peel="auto"`` selects the flat-array peel state
  on the CSR engine and the dict state otherwise; benchmarks force
  ``peel="dict"`` on CSR to measure the array kernel against its hash-based
  twin.
* **Close/ownership semantics** — :meth:`close` tears down engines the
  context resolved itself (process pools, shared-memory exports) and *never*
  touches a caller-supplied engine; the context is a context manager, so
  the ``try/finally`` boilerplate disappears from the algorithms.

Algorithms accept ``context=`` and otherwise build a scoped context from
their legacy keywords via :func:`scoped_context`, which is what keeps the
historical kwargs API working unchanged on top of the runtime layer.

The imports from :mod:`repro.core` are deliberately deferred into the
methods: ``repro.core``'s own modules import this package at load time, and
resolving engines lazily keeps ``import repro.runtime`` acyclic no matter
which side is imported first.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.errors import ParameterError
from repro.instrumentation import Counters, NULL_COUNTERS
from repro.runtime.peel import (
    PEEL_STATES,
    make_core_map,
    make_peel_state,
)


class ExecutionContext:
    """Owns engine, executor, worker pool lifecycle and counters — once.

    Parameters
    ----------
    graph:
        The graph every phase of the computation runs against.
    backend:
        Backend name (``"dict"`` / ``"csr"`` / ``"numpy"`` / ``"native"`` /
        ``"auto"``) or a pre-built engine.  Name-resolved engines are
        *owned*: :meth:`close` tears them down.  A supplied engine is
        borrowed and never closed.  ``"auto"`` climbs the fixed engine
        ladder of :func:`~repro.core.backends.resolved_backend_name`
        (dict for non-``int`` vertex labels, then native, numpy or csr by
        size and installed extras).
    executor:
        Scheduler for the bulk h-degree passes (``"serial"`` / ``"thread"``
        / ``"process"``).
    num_workers:
        Worker count for the selected executor (default: 1).
    counters:
        Instrumentation sink shared by every phase run under this context.
    peel:
        Peel-state layout: ``"auto"`` (array on CSR, dict otherwise),
        ``"dict"``, or ``"array"`` (CSR only).
    relabel:
        Optional cache-locality vertex permutation applied when the context
        builds a CSR-family engine from a name: ``"degree"`` (hubs first)
        or ``"bfs"`` (neighbors clustered).  Label-space results are
        unaffected; the dict engine ignores it.
    storage:
        Storage tier for context-built CSR snapshots (``"auto"`` / ``"ram"``
        / ``"mmap"`` — see :mod:`repro.graph.storage`).  ``"auto"`` stays in
        RAM below the ``KH_CORE_MMAP_THRESHOLD`` gate and spills giant
        snapshots to a memory-mapped temp block file; ``"mmap"`` forces the
        spill.  A :class:`~repro.graph.views.FrozenGraphView` input reuses
        its embedded snapshot regardless.
    storage_dir:
        Directory for mmap spill files (default: the system temp dir).

    Example
    -------
    >>> from repro.graph.generators import cycle_graph
    >>> from repro.runtime import ExecutionContext
    >>> from repro.core import h_lb
    >>> graph = cycle_graph(8)
    >>> with ExecutionContext(graph, backend="csr") as ctx:
    ...     h_lb(graph, 2, context=ctx).degeneracy
    4
    """

    __slots__ = ("graph", "engine", "executor", "num_workers", "counters",
                 "peel", "owns_engine", "closed")

    def __init__(self, graph, backend="auto", executor: str = "thread",
                 num_workers: Optional[int] = None,
                 counters: Counters = NULL_COUNTERS,
                 peel: str = "auto",
                 relabel: Optional[str] = None,
                 storage: str = "auto",
                 storage_dir: Optional[str] = None) -> None:
        from repro.core.backends import resolve_engine
        from repro.core.parallel import _validate_executor

        _validate_executor(executor)
        if peel not in PEEL_STATES:
            raise ParameterError(
                f"unknown peel state {peel!r}; expected one of {PEEL_STATES}"
            )
        self.graph = graph
        self.executor = executor
        self.num_workers = 1 if num_workers is None else num_workers
        self.counters = counters
        self.peel = peel
        self.engine = resolve_engine(graph, backend, relabel=relabel,
                                     storage=storage,
                                     storage_dir=storage_dir)
        #: True when the context resolved the engine from a name and is
        #: therefore responsible for tearing it down; False for
        #: caller-supplied engines, which :meth:`close` never touches.
        self.owns_engine = isinstance(backend, str)
        self.closed = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Tear down an owned engine (worker pools, shared memory); idempotent.

        A caller-supplied engine is left untouched — the caller owns its
        lifecycle (this is the single place that rule is implemented).
        """
        if self.closed:
            return
        self.closed = True
        if self.owns_engine:
            self.engine.close()

    def __enter__(self) -> "ExecutionContext":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # execution surface
    # ------------------------------------------------------------------ #
    @property
    def backend_name(self) -> str:
        """Concrete backend name of the resolved engine."""
        return self.engine.name

    @property
    def resilience(self):
        """The engine's :class:`ResilienceReport`, or ``None``.

        Only CSR-family engines (which can dispatch to the supervised
        process pool) carry one; dict engines expose their process
        delegate's report when they have promoted.
        """
        return getattr(self.engine, "resilience", None)

    def bulk_h_degrees(self, h: int, targets=None, alive=None,
                       counters: Optional[Counters] = None):
        """Bulk h-degree pass through the context's engine + executor."""
        return self.engine.bulk_h_degrees(
            h, targets=targets, alive=alive,
            num_workers=self.num_workers,
            counters=self.counters if counters is None else counters,
            executor=self.executor)

    def make_peel_state(self, counters: Optional[Counters] = None):
        """Fresh peel state in the context's configured layout."""
        return make_peel_state(
            self.engine,
            self.counters if counters is None else counters,
            peel=self.peel)

    def make_core_map(self):
        """Fresh core-index map matching the configured peel layout."""
        return make_core_map(self.engine, peel=self.peel)

    def sink(self, counters: Counters = NULL_COUNTERS) -> Counters:
        """The counters an algorithm should record into.

        An explicitly supplied non-null ``counters`` wins over the
        context's own sink, preserving the historical keyword behavior.
        """
        return counters if counters is not NULL_COUNTERS else self.counters

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return (f"ExecutionContext(backend={self.engine.name!r}, "
                f"executor={self.executor!r}, "
                f"num_workers={self.num_workers}, peel={self.peel!r}, "
                f"owns_engine={self.owns_engine}, {state})")


@contextmanager
def scoped_context(graph, context: Optional[ExecutionContext] = None,
                   backend="auto", executor: str = "thread",
                   num_workers: Optional[int] = None,
                   counters: Counters = NULL_COUNTERS,
                   peel: str = "auto",
                   storage: str = "auto",
                   storage_dir: Optional[str] = None
                   ) -> Iterator[ExecutionContext]:
    """Yield ``context`` if supplied, else a fresh context closed on exit.

    This is the shim every keyword entry point runs on: the historical
    ``backend=`` / ``executor=`` / ``num_workers=`` keywords construct a
    context scoped to the call, while
    a caller-supplied ``context`` is passed through **without** being closed
    — its owner decides when the pools die.
    """
    if context is not None:
        if context.graph is not graph:
            raise ParameterError(
                "the supplied execution context was built for a different "
                "graph"
            )
        if context.closed:
            raise ParameterError("the supplied execution context is closed")
        yield context
        return
    fresh = ExecutionContext(graph, backend=backend, executor=executor,
                             num_workers=num_workers,
                             counters=counters, peel=peel,
                             storage=storage, storage_dir=storage_dir)
    try:
        yield fresh
    finally:
        fresh.close()
