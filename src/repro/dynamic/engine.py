"""`DynamicKHCore`: exact (k,h)-core maintenance under streaming edge updates.

The batch algorithms (h-BZ / h-LB / h-LB+UB) recompute the whole
decomposition from an immutable snapshot.  For evolving graphs that is
wasteful: toggling one edge ``(u, v)`` can only change the h-neighborhood
structure of vertices within distance ``h`` of ``u`` or ``v``, and core
index changes propagate only through overlapping h-neighborhoods.  The
engine exploits that locality:

1. **Seed.**  Collect the dirty seeds — ``{u, v} ∪ N_h(u) ∪ N_h(v)`` for
   every update, measured in the graph state where the edge exists (after an
   insertion, before a deletion).  Only seeded vertices see the toggled edge
   inside their h-ball, so only they can be *directly* affected.
2. **Re-peel.**  Re-run the peeling on the region only, against a frozen
   shell of surrounding vertices pinned at their old core levels
   (:func:`repro.dynamic.repeel.repeel_region`).
3. **Expand to a fixed point.**  If any vertex whose core changed has
   h-neighbors outside the region, those neighbors' cores can no longer be
   trusted: grow the region by the h-neighborhoods of all changed vertices
   and re-peel.  At convergence every changed vertex is buried strictly
   inside the region, so every frozen assumption has been verified and the
   maintained indices equal a from-scratch decomposition.
4. **Fall back.**  When the dirty region exceeds
   ``fallback_ratio · |V|`` (or the fixed point needs too many rounds —
   both symptoms that locality has broken down, e.g. a bridge edge into a
   dense hub), recompute from scratch with the configured batch algorithm.
   The fallback is a correctness-neutral performance policy.

The engine owns its graph: apply updates through :meth:`apply` /
:meth:`apply_batch`.  Out-of-band mutations of the underlying
:class:`~repro.graph.graph.Graph` are detected through its version counter
and resolved by a full recomputation on the next query (counted in
``stats.external_resyncs``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.core.backends import CSREngine, Engine, resolved_backend_name
from repro.core.decomposition import ALGORITHMS, core_decomposition
from repro.runtime.context import ExecutionContext
from repro.core.result import CoreDecomposition
from repro.dynamic.repeel import repeel_region
from repro.dynamic.stats import (
    MODE_FULL,
    MODE_INCREMENTAL,
    MODE_NOOP,
    DynamicStats,
    UpdateSummary,
)
from repro.dynamic.stream import DELETE, INSERT, EdgeUpdate, normalize_op
from repro.graph.csr import CSRGraph
from repro.errors import (
    EdgeNotFoundError,
    GraphError,
    InvalidDistanceThresholdError,
    ParameterError,
)
from repro.graph.graph import Graph, Vertex
from repro.instrumentation import Counters, NULL_COUNTERS
from repro.traversal.bfs import h_bounded_neighbors

#: Default fraction of |V| the dirty universe may reach before the engine
#: falls back to full recomputation.
DEFAULT_FALLBACK_RATIO = 0.35

#: Default cap on fixed-point expansion rounds per batch.
DEFAULT_MAX_EXPANSIONS = 4


class DynamicKHCore:
    """Maintain exact (k,h)-core indices of an evolving graph.

    Parameters
    ----------
    graph:
        Initial graph (taken by reference and owned by the engine; a fresh
        empty graph when omitted).
    h:
        Distance threshold (``h >= 1``).
    backend:
        ``"dict"``, ``"csr"``, ``"numpy"``, ``"native"`` or ``"auto"`` —
        resolved once at construction and kept for the engine's lifetime.
        The CSR-family backends (``csr`` plus the vectorized ``numpy`` and
        compiled ``native`` engines) delta-rebuild their snapshot after
        each batch (touched rows only), the dict backend reads the live
        graph.
    relabel:
        Optional cache-locality vertex permutation (``"degree"`` / ``"bfs"``)
        applied whenever a CSR-family snapshot is built; maintained cores
        are label-space and unaffected.
    storage:
        Storage tier for CSR-family snapshots (``"auto"`` / ``"ram"`` /
        ``"mmap"`` — see :mod:`repro.graph.storage`).  Dynamic maintenance
        still keeps the live dict graph in RAM; this only controls where
        the peeling snapshots spill.
    algorithm:
        Batch algorithm used for the initial decomposition and every full
        recomputation (``"auto"`` dispatches as in
        :func:`repro.core.core_decomposition`).
    fallback_ratio:
        Dirty-region size threshold, as a fraction of ``|V|``, above which
        a batch is resolved by full recomputation instead of an incremental
        re-peel.  The frozen shell around the region is not counted: shell
        vertices cost one forced removal each, while region vertices carry
        the peeling and expansion work.  ``1.0`` never falls back on size;
        ``0.0`` always does.
    max_expansions:
        Maximum fixed-point expansion rounds before giving up and falling
        back.
    num_workers / executor / partition_size:
        Forwarded to the batch algorithm on full recomputations.
    counters:
        Optional shared instrumentation sink for all traversal work.
    initial_cores:
        Optional warm start: the exact ``vertex -> core index`` mapping of
        ``graph`` for this ``h``, adopted verbatim instead of running the
        initial decomposition.  The caller vouches for exactness (the
        persistent index refresher passes its checksum-validated stored
        layers); a wrong mapping silently corrupts every later answer.  The
        mapping must cover exactly the graph's vertex set.

    Example
    -------
    >>> from repro.graph.generators import cycle_graph
    >>> engine = DynamicKHCore(cycle_graph(6), h=2)
    >>> engine.core_number(0)
    4
    >>> summary = engine.delete_edge(0, 1)
    >>> engine.core_number(3)
    2
    """

    def __init__(self, graph: Optional[Graph] = None, h: int = 2,
                 backend: str = "auto",
                 algorithm: str = "auto",
                 fallback_ratio: float = DEFAULT_FALLBACK_RATIO,
                 max_expansions: int = DEFAULT_MAX_EXPANSIONS,
                 partition_size: int = 1,
                 counters: Optional[Counters] = None,
                 executor: str = "thread",
                 num_workers: Optional[int] = None,
                 relabel: Optional[str] = None,
                 storage: str = "auto",
                 initial_cores: Optional[Dict[Vertex, int]] = None) -> None:
        if not isinstance(h, int) or isinstance(h, bool) or h < 1:
            raise InvalidDistanceThresholdError(h)
        # Backend names are validated by resolved_backend_name below.
        if algorithm not in ALGORITHMS:
            raise ParameterError(
                f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}"
            )
        if not 0.0 <= fallback_ratio <= 1.0:
            raise ParameterError("fallback_ratio must be in [0, 1]")
        if max_expansions < 0:
            raise ParameterError("max_expansions must be >= 0")

        self.graph = graph if graph is not None else Graph()
        self.h = h
        self.algorithm = algorithm
        self.fallback_ratio = fallback_ratio
        self.max_expansions = max_expansions
        self.partition_size = partition_size
        self.counters = counters if counters is not None else NULL_COUNTERS
        self.stats = DynamicStats()

        #: Backend name fixed at construction
        #: ("dict", "csr", "numpy" or "native").
        self.backend = resolved_backend_name(self.graph, backend)
        self.executor = executor
        self.relabel = relabel
        self.storage = storage
        #: The execution context owns the peeling engine (and any worker
        #: pool it spins up) for the engine's whole lifetime; rebuilt only
        #: if the graph object itself is swapped out from under us.
        self._context = ExecutionContext(self.graph, backend=self.backend,
                                         executor=executor,
                                         num_workers=num_workers,
                                         counters=self.counters,
                                         relabel=relabel,
                                         storage=storage)
        self.num_workers = self._context.num_workers
        self._core: Dict[Vertex, int] = {}
        self._synced_version: int = -1
        if initial_cores is not None:
            if set(initial_cores) != set(self.graph.vertices()):
                raise ParameterError(
                    "initial_cores must cover exactly the graph's vertex set")
            self._core = dict(initial_cores)
            self._synced_version = self.graph.version
        else:
            self._full_recompute(initial=True)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def core_numbers(self) -> Dict[Vertex, int]:
        """Current ``vertex -> core index`` mapping (a defensive copy).

        The returned dict is a snapshot: subsequent :meth:`apply` /
        :meth:`apply_batch` calls (which update the engine's internal map in
        place during incremental re-peels) never mutate it.  Consumers that
        cache decompositions across updates — the query service above all —
        depend on this guarantee, and a regression test pins it.
        """
        self._resync_if_mutated_externally()
        return dict(self._core)

    def csr_snapshot(self) -> "CSRGraph":
        """Immutable CSR snapshot of the current graph state.

        When the engine runs a CSR-family backend whose snapshot is current
        (the steady state right after :meth:`apply_batch`), this is a
        zero-copy reference grab: :class:`~repro.graph.csr.CSRGraph`
        instances are never mutated — ``refresh`` swaps in a new object —
        and the ``source_version`` stamp proves freshness.  The dict
        backend (or a stale snapshot) pays one full build.  This is the
        structure-publication primitive of :mod:`repro.serve`: the snapshot
        stays internally consistent no matter what later updates do.
        """
        self._resync_if_mutated_externally()
        context = self._context
        if context is not None and isinstance(context.engine, CSREngine):
            csr = context.engine.csr
            if csr.source_version == self.graph.version:
                return csr
        return CSRGraph.from_graph(self.graph, relabel=self.relabel)

    def core_number(self, v: Vertex) -> int:
        """Current core index of one vertex (raises KeyError if absent)."""
        self._resync_if_mutated_externally()
        return self._core[v]

    def decomposition(self) -> CoreDecomposition:
        """Wrap the current indices in a :class:`CoreDecomposition` view.

        The core index is a defensive copy (like :meth:`core_numbers`), but
        the wrapped ``graph`` is the engine's **live** graph: structure
        queries (``core_subgraph`` etc.) made after further updates mix old
        cores with new structure.  Callers that need a fully frozen epoch
        should use :meth:`csr_snapshot` alongside :meth:`core_numbers`, as
        the query service does.
        """
        self._resync_if_mutated_externally()
        return CoreDecomposition(self.graph, self.h, dict(self._core),
                                 algorithm="dynamic")

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #
    def insert_edge(self, u: Vertex, v: Vertex) -> UpdateSummary:
        """Insert one edge (no-op if present) and maintain the cores."""
        return self.apply(INSERT, u, v)

    def delete_edge(self, u: Vertex, v: Vertex) -> UpdateSummary:
        """Delete one edge (must exist) and maintain the cores."""
        return self.apply(DELETE, u, v)

    def apply(self, op: str, u: Vertex, v: Vertex) -> UpdateSummary:
        """Apply a single edge update; see :meth:`apply_batch`."""
        return self.apply_batch([(op, u, v)])

    def apply_batch(self,
                    updates: Iterable[Union[EdgeUpdate, Tuple[str, Vertex,
                                                              Vertex]]]
                    ) -> UpdateSummary:
        """Apply a batch of edge updates and restore exact core indices.

        Each update is ``(op, u, v)`` with ``op`` one of the spellings
        accepted by :func:`repro.dynamic.stream.normalize_op` (``"+"`` /
        ``"-"`` canonically).  Inserting an existing edge is a counted
        no-op; deleting a missing edge raises
        :class:`~repro.errors.EdgeNotFoundError` *before* any update of the
        batch has been applied, so a failed batch leaves the engine
        unchanged.  Self-loop insertions are rejected the same way.

        Returns an :class:`~repro.dynamic.stats.UpdateSummary` describing
        whether the batch was resolved incrementally, by the
        full-recomputation fallback, or was a no-op.
        """
        self._resync_if_mutated_externally()
        normalized = [EdgeUpdate(normalize_op(op), u, v)
                      for op, u, v in updates]
        self._validate_batch(normalized)

        seeds: Set[Vertex] = set()
        touched: Set[Vertex] = set()
        applied = 0
        skipped = 0
        had_insertions = False
        for op, u, v in normalized:
            if op == INSERT:
                if self.graph.has_edge(u, v):
                    skipped += 1
                    continue
                self.graph.add_edge(u, v)
                # Seeds are measured with the edge present: after an insert.
                self._collect_seeds(seeds, u, v)
                had_insertions = True
            else:
                # ... and before a delete.
                self._collect_seeds(seeds, u, v)
                self.graph.remove_edge(u, v)
            touched.update((u, v))
            applied += 1

        self.stats.updates_applied += applied
        self.stats.noop_updates += skipped
        if not applied:
            self._synced_version = self.graph.version
            return UpdateSummary(mode=MODE_NOOP, skipped=skipped,
                                 reason="no structural change")
        self.stats.batches += 1

        summary = self._maintain(seeds, touched, applied, skipped,
                                 had_insertions)
        self._synced_version = self.graph.version
        return summary

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _validate_batch(self, updates: Sequence[EdgeUpdate]) -> None:
        """Fail fast on updates that would abort the batch midway.

        Simulates presence/absence of the touched edges so that deleting an
        edge inserted earlier in the same batch (and vice versa) validates
        correctly.
        """
        present: Dict[frozenset, bool] = {}
        for op, u, v in updates:
            if u == v and op == INSERT:
                # Graph.add_edge would reject it; surface it pre-mutation.
                raise GraphError(
                    f"self-loops are not supported (vertex {u!r})")
            key = frozenset((u, v))
            exists = present.get(key, self.graph.has_edge(u, v))
            if op == DELETE and not exists:
                raise EdgeNotFoundError(u, v)
            present[key] = op == INSERT

    def _collect_seeds(self, seeds: Set[Vertex], u: Vertex,
                       v: Vertex) -> None:
        """Add ``{u, v} ∪ N_h(u) ∪ N_h(v)`` (current graph) to ``seeds``.

        Seed collection always walks the live dict graph — cheap, and
        independent of whether the peeling backend snapshot is current.
        """
        h = self.h
        seeds.add(u)
        seeds.add(v)
        seeds.update(h_bounded_neighbors(self.graph, u, h,
                                         counters=self.counters))
        seeds.update(h_bounded_neighbors(self.graph, v, h,
                                         counters=self.counters))

    def _maintain(self, seeds: Set[Vertex], touched: Set[Vertex],
                  applied: int, skipped: int,
                  had_insertions: bool) -> UpdateSummary:
        """Resolve one applied batch: incremental re-peel or fallback."""
        n = self.graph.num_vertices
        limit = int(self.fallback_ratio * n)
        if len(seeds) > limit:
            return self._full_recompute(
                touched=touched, applied=applied, skipped=skipped,
                reason=f"seed region {len(seeds)} > limit {limit}")

        result = self._incremental_repeel(seeds, touched, limit,
                                          had_insertions)
        if result is None:
            return self._full_recompute(
                touched=touched, applied=applied, skipped=skipped,
                reason="dirty region exceeded limit during expansion")
        region_size, universe_size, expansions, changed = result
        self.stats.incremental_repeels += 1
        self.stats.region_expansions += expansions
        self.stats.last_region_size = region_size
        self.stats.last_universe_size = universe_size
        self.stats.peak_universe_size = max(self.stats.peak_universe_size,
                                            universe_size)
        self.stats.vertices_repeeled += region_size
        self.stats.cores_changed += len(changed)
        return UpdateSummary(mode=MODE_INCREMENTAL, applied=applied,
                             skipped=skipped, region_size=region_size,
                             universe_size=universe_size,
                             expansions=expansions,
                             cores_changed=len(changed),
                             changed_vertices=frozenset(changed))

    def _rise_closure(self, engine: Engine, region: Set[object],
                      limit: int,
                      ball_cache: Dict[object, List[object]]
                      ) -> Optional[Set[object]]:
        """Close ``region`` over every vertex whose core could *increase*.

        A frozen shell is only sound if no shell vertex's core can change.
        Deletion cascades are caught by the diff-driven expansion (a fall
        always chain-links back to a detected fall inside the region), but
        a *rise* can hide entirely: a new cycle through two shell vertices
        pinned at their old cores never registers a diff.  The escape hatch
        is the maximality of the old decomposition: any set of vertices
        that rises must chain back — riser to riser, each within distance
        ``h`` of the next — to an inserted edge, and every riser ``x``
        necessarily satisfies ``deg^h(x) > core_old(x)`` in the new graph
        (a core index never exceeds the full-graph h-degree).  Flooding
        from the seeds through vertices passing that test therefore covers
        every possible riser.  Returns the closed region, or ``None`` once
        it exceeds ``limit`` (caller falls back).
        """
        h = self.h
        counters = self.counters
        old_core = self._core
        tested: Dict[object, Optional[List[object]]] = {}

        def riser_ball(handle: object) -> Optional[List[object]]:
            """The h-ball of ``handle`` if it may rise, else None (cached).

            One BFS serves both purposes: its size is the full-graph
            h-degree (the rise test) and its members are the next flood
            frontier.
            """
            if handle in tested:
                return tested[handle]
            ball = ball_cache.get(handle)
            if ball is None:
                ball = engine.h_neighborhood(handle, h, None, counters)
                ball_cache[handle] = ball
            old = old_core.get(engine.label(handle), -1)
            result = ball if len(ball) > old else None
            tested[handle] = result
            return result

        frontier: List[object] = []
        for w in region:
            ball = engine.h_neighborhood(w, h, None, counters)
            ball_cache[w] = ball
            frontier.extend(ball)
        while frontier:
            grown: List[object] = []
            for x in frontier:
                if x in region:
                    continue
                ball = riser_ball(x)
                if ball is not None:
                    region.add(x)
                    if len(region) > limit:
                        # Bail before paying a BFS for every remaining
                        # frontier entry: the fallback is already decided.
                        return None
                    grown.extend(ball)
            frontier = grown
        return region

    def _incremental_repeel(self, seeds: Set[Vertex], touched: Set[Vertex],
                            limit: int, had_insertions: bool
                            ) -> Optional[Tuple[int, int, int, Set[Vertex]]]:
        """Run the seed → (rise-close) → re-peel → expand fixed point.

        Returns ``(region_size, universe_size, expansions, changed_labels)``
        on success — ``changed_labels`` being the exact set of vertices
        whose core index changed — or ``None`` when the region outgrew
        ``limit`` (caller falls back to full recomputation).
        """
        engine = self._refreshed_engine(touched)
        h = self.h
        counters = self.counters
        old_core = self._core

        # Full-graph h-balls, memoized for the duration of the batch: the
        # graph does not change between here and the commit, and the rise
        # closure, the shell computation and the diff expansion all ask for
        # the same balls.
        ball_cache: Dict[object, List[object]] = {}

        def full_ball(handle: object) -> List[object]:
            ball = ball_cache.get(handle)
            if ball is None:
                ball = engine.h_neighborhood(handle, h, None, counters)
                ball_cache[handle] = ball
            return ball

        region: Set[object] = {engine.handle_of(v) for v in seeds
                               if v in self.graph}
        if had_insertions:
            closed = self._rise_closure(engine, region, limit, ball_cache)
            if closed is None:
                return None
            region = closed
        expansions = 0
        while True:
            # Shell: N_h[region] \ region, pinned at old core levels.  A
            # region member without an old core is a vertex created by this
            # batch; it is always treated as changed below.
            if len(region) > limit:
                return None
            shell_levels: Dict[object, int] = {}
            for w in region:
                for x in full_ball(w):
                    if x not in region and x not in shell_levels:
                        shell_levels[x] = old_core[engine.label(x)]
            universe = len(region) + len(shell_levels)

            new_core = repeel_region(engine, h, region, shell_levels,
                                     counters)

            changed = [w for w in region
                       if old_core.get(engine.label(w)) != new_core[w]]
            grow: Set[object] = set()
            for w in changed:
                for x in full_ball(w):
                    if x not in region:
                        grow.add(x)
            if not grow:
                changed_labels = {engine.label(w) for w in changed}
                for w in region:
                    old_core[engine.label(w)] = new_core[w]
                return len(region), universe, expansions, changed_labels
            if expansions >= self.max_expansions:
                return None
            expansions += 1
            region |= grow

    def close(self) -> None:
        """Tear down the owned execution context (worker pools, shared memory).

        Idempotent; the engine rebuilds its context transparently if used
        again afterwards.
        """
        context, self._context = self._context, None
        if context is not None:
            context.close()

    def _refreshed_engine(self, touched: Optional[Set[Vertex]]) -> Engine:
        """Return the peeling engine, snapshot brought up to date."""
        context = self._context
        if context is None or context.engine.graph is not self.graph:
            if context is not None:
                context.close()
            self._context = context = ExecutionContext(
                self.graph, backend=self.backend, executor=self.executor,
                num_workers=self.num_workers, counters=self.counters,
                relabel=self.relabel, storage=self.storage)
        elif isinstance(context.engine, CSREngine):
            context.engine.refresh(touched)
        return context.engine

    def _resync_if_mutated_externally(self) -> None:
        """Recompute everything if the graph changed behind our back."""
        if self._synced_version != self.graph.version:
            self.stats.external_resyncs += 1
            self._full_recompute()

    def _full_recompute(self, initial: bool = False,
                        touched: Optional[Set[Vertex]] = None,
                        applied: int = 0, skipped: int = 0,
                        reason: str = "") -> UpdateSummary:
        """From-scratch decomposition with the configured batch algorithm."""
        self._refreshed_engine(touched)
        result = core_decomposition(self.graph, self.h,
                                    algorithm=self.algorithm,
                                    partition_size=self.partition_size,
                                    counters=self.counters,
                                    context=self._context)
        previous = self._core
        self._core = dict(result.core_index)
        self._synced_version = self.graph.version
        if initial:
            changed: frozenset = frozenset()
        else:
            # Vertices whose core moved, vertices created by the batch, and
            # vertices that vanished (external remove_vertex) all count.
            changed = frozenset(
                {v for v, k in self._core.items() if previous.get(v) != k}
                | {v for v in previous if v not in self._core})
        if not initial:
            self.stats.full_recomputes += 1
            self.stats.cores_changed += len(changed)
        return UpdateSummary(mode=MODE_FULL, applied=applied,
                             skipped=skipped, cores_changed=len(changed),
                             reason=reason or "full recomputation",
                             changed_vertices=changed)

    def __repr__(self) -> str:
        return (f"DynamicKHCore(h={self.h}, backend={self.backend!r}, "
                f"|V|={self.graph.num_vertices}, "
                f"|E|={self.graph.num_edges}, "
                f"updates={self.stats.updates_applied})")
