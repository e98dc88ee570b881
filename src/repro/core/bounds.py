"""Lower and upper bounds on the (k,h)-core index (§4.2, §4.4, §4.5).

* ``LB1(v) = deg^{⌊h/2⌋}(v)`` (Observation 1): every vertex in the
  ⌊h/2⌋-neighborhood of ``v`` is within distance h of every other, so they
  form a mutually supporting group.
* ``LB2(v) = max{LB1(u) : d(u,v) ≤ ⌈h/2⌉} ∪ {LB1(v)}`` (Observation 2).
* ``UB(v)``: the classic core index of ``v`` in the (implicit) h-power graph
  ``G^h`` (Algorithm 5).  The power graph is never materialized: each time a
  vertex is popped its h-neighborhood in the *original* graph is recomputed
  and the surviving neighbors' estimated degrees are decremented by one.
  The peeling drives the shared :class:`~repro.runtime.peel.PeelState`
  (flat arrays on the CSR engine — the inner decrement loop walks the BFS
  scratch buffer directly, with no per-neighbor list materialized).
* ``ImproveLB`` (Algorithm 6): within a candidate partition ``V[k]``, the
  minimum h-degree is itself a lower bound for every member (Property 3), and
  vertices that certainly cannot reach core index ``k`` are cleaned away.

Each bound exists in two layers: an ``engine_*`` function written against the
backend-engine API (handle space; used by h-LB and h-LB+UB so the bounds run
on whichever backend the caller selected) and a public label-space wrapper
with the historical ``graph``-first signature (used by tests and the
bound-quality experiments).  For the dict engine handles *are* the vertex
labels, so the wrappers delegate without any translation cost.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Optional, Set, Tuple

from repro.errors import InvalidDistanceThresholdError
from repro.graph.graph import Graph, Vertex
from repro.core.backends import CSREngine, DictEngine, Engine
from repro.instrumentation import Counters, NULL_COUNTERS
from repro.runtime.peel import ArrayPeelState, make_peel_state

Handle = Hashable


def _validate_h(h: int) -> None:
    if not isinstance(h, int) or isinstance(h, bool) or h < 1:
        raise InvalidDistanceThresholdError(h)


# --------------------------------------------------------------------- #
# lower bounds
# --------------------------------------------------------------------- #
def engine_lb1(engine: Engine, h: int,
               targets: Optional[Iterable[Handle]] = None,
               counters: Counters = NULL_COUNTERS) -> Dict[Handle, int]:
    """``LB1(v) = deg^{⌊h/2⌋}(v)`` per handle (Observation 1)."""
    _validate_h(h)
    half = h // 2
    handles = list(targets) if targets is not None else list(engine.nodes())
    if half == 0:
        # h = 1: the half-neighborhood is empty, so the only safe cheap lower
        # bound is 0 (the classic decomposition never uses LB1 anyway).
        return {v: 0 for v in handles}
    if half == 1:
        return {v: engine.degree(v) for v in handles}
    return {
        v: engine.h_degree(v, half, None, counters)
        for v in handles
    }


def engine_lb2(engine: Engine, h: int,
               lb1: Optional[Dict[Handle, int]] = None,
               counters: Counters = NULL_COUNTERS) -> Dict[Handle, int]:
    """``LB2(v)`` per handle (Observation 2)."""
    _validate_h(h)
    if lb1 is None:
        lb1 = engine_lb1(engine, h, counters=counters)
    half_up = (h + 1) // 2
    lb2: Dict[Handle, int] = {}
    for v in engine.nodes():
        best = lb1[v]
        for u in engine.h_neighborhood(v, half_up, None, counters):
            if lb1[u] > best:
                best = lb1[u]
        lb2[v] = best
    return lb2


def lower_bound_lb1(graph: Graph, h: int,
                    vertices: Optional[Iterable[Vertex]] = None,
                    counters: Counters = NULL_COUNTERS) -> Dict[Vertex, int]:
    """Return ``LB1(v) = deg^{⌊h/2⌋}_G(v)`` for every vertex (Observation 1).

    For ``h`` in {2, 3} the half-radius is 1 and LB1 is just the ordinary
    degree, which needs no BFS at all.
    """
    return engine_lb1(DictEngine(graph), h, targets=vertices, counters=counters)


def lower_bound_lb2(graph: Graph, h: int,
                    lb1: Optional[Dict[Vertex, int]] = None,
                    counters: Counters = NULL_COUNTERS) -> Dict[Vertex, int]:
    """Return ``LB2(v)`` for every vertex (Observation 2).

    ``LB2(v)`` is the maximum LB1 value over the ⌈h/2⌉-neighborhood of ``v``
    (including ``v`` itself), which is still a valid lower bound because every
    ⌊h/2⌋-neighbor of a ⌈h/2⌉-neighbor of ``v`` is within distance ``h`` of
    ``v``.
    """
    return engine_lb2(DictEngine(graph), h, lb1=lb1, counters=counters)


# --------------------------------------------------------------------- #
# upper bound (Algorithm 5)
# --------------------------------------------------------------------- #
def engine_upper_bound(engine: Engine, h: int,
                       initial_h_degrees: Optional[Dict[Handle, int]] = None,
                       counters: Counters = NULL_COUNTERS,
                       num_workers: Optional[int] = None,
                       executor: str = "thread",
                       peel: str = "auto") -> Dict[Handle, int]:
    """``UB(v)`` per handle: classic core index in the implicit h-power graph."""
    _validate_h(h)
    handles = list(engine.nodes())
    if not handles:
        return {}
    if initial_h_degrees is None:
        initial_h_degrees = engine.bulk_h_degrees(h, targets=handles,
                                                  num_workers=num_workers,
                                                  counters=counters,
                                                  executor=executor)
    state = make_peel_state(engine, counters, peel=peel)
    state.fill_exact((v, initial_h_degrees[v]) for v in handles)

    ub: Dict[Handle, int] = {}
    remaining = len(handles)
    k = 0
    if isinstance(state, ArrayPeelState) and isinstance(engine, CSREngine):
        # Array fast path: the inner loop only decrements (no nested BFS),
        # so it can walk the scratch's order buffer in place — zero copies —
        # with the bucket pop/move inlined on local-bound arrays and the
        # decrement/move counters flushed in batches (identical totals).
        scratch = engine.scratch
        run = scratch.run
        heads = state.heads
        nxt = state.nxt
        prv = state.prv
        key_of = state.key_of_
        degrees = state.degrees
        moves = 0
        decrements = 0
        while remaining:
            vertex = heads[k]
            if vertex < 0:
                k += 1
                continue
            follower = nxt[vertex]
            heads[k] = follower
            if follower >= 0:
                prv[follower] = -1
            key_of[vertex] = -1
            ub[vertex] = k
            remaining -= 1
            # Power-graph adjacency = h-neighborhood in the original graph.
            run(vertex, h, None, counters)
            order = scratch.order
            for index in range(1, len(order)):
                u = order[index]
                current = key_of[u]
                if current < 0:
                    continue
                degree = degrees[u] - 1
                degrees[u] = degree
                decrements += 1
                key = degree if degree > k else k
                if current == key:
                    continue
                before = prv[u]
                after = nxt[u]
                if before >= 0:
                    nxt[before] = after
                else:
                    heads[current] = after
                if after >= 0:
                    prv[after] = before
                head = heads[key]
                nxt[u] = head
                prv[u] = -1
                if head >= 0:
                    prv[head] = u
                heads[key] = u
                key_of[u] = key
                moves += 1
        if decrements:
            counters.record_decrements(decrements)
        if moves:
            counters.record_bucket_moves(moves)
        state._count = 0
        return ub

    while remaining:
        vertex = state.pop(k)
        if vertex is None:
            k += 1
            continue
        ub[vertex] = k
        remaining -= 1
        # Power-graph adjacency = h-neighborhood in the original graph.
        for u in engine.h_neighborhood(vertex, h, None, counters):
            if u in state:
                degree = state.decrement(u)
                counters.record_decrement()
                state.move_to(u, max(degree, k))
    return ub


def upper_bound(graph: Graph, h: int,
                initial_h_degrees: Optional[Dict[Vertex, int]] = None,
                counters: Counters = NULL_COUNTERS,
                num_workers: Optional[int] = None,
                executor: str = "thread") -> Dict[Vertex, int]:
    """Return ``UB(v)``: the classic core index of ``v`` in the h-power graph.

    Implements Algorithm 5.  The power graph is kept implicit: when a vertex
    is popped, its h-neighborhood is recomputed in the **original** graph
    (power-graph adjacency is defined by original distances), and the
    estimated degree of every still-unprocessed neighbor is decreased by one.
    Because removing a vertex can reduce a true h-degree by more than one,
    the value obtained is an upper bound of the (k,h)-core index.

    Parameters
    ----------
    initial_h_degrees:
        Optional precomputed ``deg^h_G(v)`` map; when the caller (h-LB+UB)
        already computed it, passing it here avoids a second full pass.
    """
    return engine_upper_bound(DictEngine(graph), h,
                              initial_h_degrees=initial_h_degrees,
                              counters=counters, num_workers=num_workers,
                              executor=executor)


# --------------------------------------------------------------------- #
# ImproveLB (Algorithm 6)
# --------------------------------------------------------------------- #
def engine_improve_lb(engine: Engine, h: int, candidate: Iterable[Handle],
                      k: int,
                      counters: Counters = NULL_COUNTERS,
                      num_workers: Optional[int] = None,
                      executor: str = "thread"):
    """Clean ``candidate`` = V[k]; return ``(alive set, min h-degree)``.

    The returned alive set uses the engine's native alive type (a Python
    ``set`` for the dict engine, an :class:`~repro.core.backends.AliveMask`
    for CSR) so the caller can hand it straight to :func:`core_decomp`.
    """
    _validate_h(h)
    alive = engine.alive_subset(candidate)
    if not alive:
        return alive, 0
    degrees = engine.bulk_h_degrees(h, targets=alive, alive=alive,
                                    num_workers=num_workers, counters=counters,
                                    executor=executor)
    min_degree = min(degrees.values())
    pending = {v for v, d in degrees.items() if d < k}
    while pending:
        vertex = pending.pop()
        if vertex not in alive:
            continue
        neighborhood = engine.h_neighborhood(vertex, h, alive, counters)
        alive.discard(vertex)
        for u in neighborhood:
            if u in alive:
                degrees[u] -= 1
                counters.record_decrement()
                if degrees[u] < k:
                    pending.add(u)
    return alive, min_degree


def improve_lb(graph: Graph, h: int, candidate: Set[Vertex], k: int,
               counters: Counters = NULL_COUNTERS,
               num_workers: Optional[int] = None,
               executor: str = "thread") -> Tuple[Set[Vertex], int]:
    """Clean ``candidate`` = V[k] and return ``(surviving vertices, min h-degree)``.

    Implements Algorithm 6.  The minimum h-degree over the candidate set is a
    lower bound for the core index of every member (Property 3); the caller
    combines it with LB2 to obtain LB3.  Vertices whose (decrement-estimated)
    h-degree inside the candidate subgraph falls below ``k`` certainly do not
    belong to any core of index ≥ k and are removed, often emptying the
    partition entirely when it contains no core.
    """
    return engine_improve_lb(DictEngine(graph), h, candidate, k,
                             counters=counters, num_workers=num_workers,
                             executor=executor)
