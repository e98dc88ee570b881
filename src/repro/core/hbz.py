"""h-BZ: the distance-generalized Batagelj–Zaveršnik baseline (Algorithm 1).

Peels vertices in increasing order of their h-degree.  Whenever a vertex is
removed, the h-degree of **every** vertex in its h-neighborhood is recomputed
with a fresh h-bounded BFS — this is exactly the cost that the lower/upper
bound algorithms (h-LB, h-LB+UB) avoid, and the reason the paper reports h-BZ
as one-to-two orders of magnitude slower.

The per-vertex bookkeeping (buckets + stored degrees) runs on the shared
:class:`~repro.runtime.peel.PeelState` protocol: flat arrays on the CSR
engine, dicts on the reference engine — selected by the execution context.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.errors import InvalidDistanceThresholdError
from repro.graph.graph import Graph
from repro.core.backends import Engine
from repro.core.result import CoreDecomposition
from repro.instrumentation import Counters, NULL_COUNTERS
from repro.runtime.context import ExecutionContext, scoped_context


def h_bz(graph: Graph, h: int,
         counters: Counters = NULL_COUNTERS,
         backend: Union[str, Engine] = "dict",
         executor: str = "thread",
         num_workers: Optional[int] = None,
         context: Optional[ExecutionContext] = None) -> CoreDecomposition:
    """Compute the (k,h)-core decomposition with the baseline h-BZ algorithm.

    Parameters
    ----------
    graph:
        Undirected, unweighted input graph.
    h:
        Distance threshold (``h >= 1``; for ``h = 1`` this degenerates to the
        classic BZ peeling, although :func:`repro.core.core_decomposition`
        dispatches h = 1 to the specialized classic implementation).
    counters:
        Instrumentation sink (visits, h-degree recomputations, bucket moves).
    num_workers:
        Workers used for the initial h-degree computation (§4.6).
    backend:
        ``"dict"`` (reference), ``"csr"`` (array backend), ``"auto"``, or a
        pre-built engine.  Both backends produce identical core numbers.
    executor:
        Scheduler for the initial bulk pass: ``"serial"``, ``"thread"``
        (GIL-bound) or ``"process"`` (shared-memory worker pool — the only
        one that scales on CPython).  All executors produce identical core
        numbers.
    context:
        Optional pre-built :class:`~repro.runtime.ExecutionContext`; when
        given it supersedes the keywords above and is **not** closed here.

    Returns
    -------
    CoreDecomposition
    """
    if not isinstance(h, int) or isinstance(h, bool) or h < 1:
        raise InvalidDistanceThresholdError(h)

    with scoped_context(graph, context, backend=backend, executor=executor,
                        num_workers=num_workers,
                        counters=counters) as ctx:
        sink = ctx.sink(counters)
        engine = ctx.engine
        alive = engine.full_alive()
        core_index = ctx.make_core_map()
        removal_order: list = []
        if not alive:
            return CoreDecomposition(graph, h, {}, algorithm="h-BZ",
                                     removal_order=removal_order)

        # Lines 1-3: initial h-degrees and bucket initialization.
        degrees = ctx.bulk_h_degrees(h, targets=alive, alive=alive,
                                     counters=sink)
        state = ctx.make_peel_state(counters=sink)
        state.fill_exact(degrees.items())

        # Lines 4-11: peel in increasing order of (current) h-degree.
        k = 0
        while alive:
            vertex = state.pop(k)
            if vertex is None:
                k += 1
                continue
            core_index[vertex] = k
            removal_order.append(vertex)
            # The h-neighborhood is taken in the *current* alive graph, before
            # removing the vertex (Algorithm 1, line 8).
            neighborhood = engine.h_neighborhood(vertex, h, alive, sink)
            alive.discard(vertex)
            for u in neighborhood:
                new_degree = engine.h_degree(u, h, alive, sink)
                sink.count_hdegree()
                state.set_degree(u, new_degree)
                state.move_to(u, max(new_degree, k))

        return CoreDecomposition(graph, h, engine.to_labels(core_index),
                                 algorithm="h-BZ",
                                 removal_order=engine.labels_of(removal_order))
