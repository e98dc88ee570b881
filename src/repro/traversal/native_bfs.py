"""Compiled h-bounded BFS kernels over CSR arrays (the ``native`` engine).

This is the fourth traversal tier, above the dict-of-sets reference BFS
(:mod:`repro.traversal.bfs`), the interpreted flat-array loop
(:mod:`repro.traversal.array_bfs`) and the vectorized NumPy kernels
(:mod:`repro.traversal.numpy_bfs`).  The motivation is the residual the
BENCH_PR5 matrix exposed: the NumPy engine wins 12-31x on dense bulk passes
but only ~2.4-2.8x on *frontier-bound* workloads (sparse meshes, small-world
rings), where per-level dispatch overhead dominates — and the thread
executor adds nothing anywhere, because every kernel holds the GIL.  Both
residuals have the same cure: compile the level loop itself.

* **One JIT-compiled loop per traversal.**  The kernels here are the
  interpreted :class:`~repro.traversal.array_bfs.ArrayBFS` loop transcribed
  into Numba ``@njit`` functions over contiguous ``int64`` arrays — same
  visit order (frontier vertices in discovery order, neighbors in adjacency
  order), same generation-stamped ``seen`` marks, same ``DEAD`` sentinel
  folding for alive masks.  No per-level Python dispatch, no boxing: the
  whole h-bounded BFS is one compiled call.
* **``nogil=True`` makes threads real.**  The compiled kernels release the
  GIL for their entire run, so the existing ``executor="thread"`` fan-out
  (:func:`repro.core.parallel.map_batches` over ``chunk_plan`` batches)
  becomes an actual parallelism path: worker threads traverse the *shared*
  CSR arrays concurrently with zero export/IPC cost — the shared-memory
  process pool's win without its setup tax.
* **``cache=True`` persists compilation.**  Compiled kernels land in the
  on-disk Numba cache (``__pycache__`` next to this module, or
  ``NUMBA_CACHE_DIR``), so the first-call JIT latency is paid once per
  machine, not once per process.  :func:`warmup_kernels` forces compilation
  eagerly — engines call it at construction (see
  :class:`~repro.core.backends.NativeEngine`) so steady-state timings never
  include compile time.

Numba is an optional extra (``pip install kh-core-repro[native]``).  When it
is absent the module still imports (it only hard-requires NumPy) and the
kernels run as plain interpreted Python over ndarrays — bit-identical
results, none of the speed.  That interpreted mode is deliberately reachable
(``KH_CORE_NATIVE_ALLOW_INTERPRETED=1``) so the full parity battery can
exercise every engine codepath on machines without a working Numba; the
engine resolver (:func:`repro.core.backends.native_available`) never selects
the native engine in production without the real compiler.
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.instrumentation import Counters, NULL_COUNTERS
from repro.traversal.array_bfs import DEAD, AliveMask
from repro.traversal.numpy_bfs import _alive_view

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit as _njit

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - the no-native CI leg
    NUMBA_AVAILABLE = False

    def _njit(*args, **kwargs):  # type: ignore[no-redef]
        """Identity stand-in: kernels run as interpreted Python."""

        def decorate(func):
            return func

        return decorate


def native_kernels_enabled() -> bool:
    """True when the kernels below actually run compiled (or are allowed not to).

    Numba importable means compiled; ``KH_CORE_NATIVE_ALLOW_INTERPRETED=1``
    opts into the interpreted fallback (a test/debug lever — identical
    results, none of the speed).  The shared-memory worker consults this to
    decide whether a ``native`` task downgrades to the NumPy or interpreted
    kernel.
    """
    if NUMBA_AVAILABLE:
        return True
    return os.environ.get("KH_CORE_NATIVE_ALLOW_INTERPRETED", "") not in (
        "",
        "0",
    )


# --------------------------------------------------------------------- #
# kernels
# --------------------------------------------------------------------- #
# Both kernels are the ArrayBFS loop over flat int64 arrays, written in the
# Numba-compilable subset (typed scalars, preallocated output arrays, no
# Python containers).  ``h < 0`` encodes "unbounded" — Optional arguments
# would force object mode.  The frontier lives *inside* the order/queue
# array (levels are contiguous segments), which is exactly how the
# interpreted loop builds its visit order, so removal orders downstream are
# bit-identical across engines.


@_njit(nogil=True, cache=True)
def _bfs_kernel(indptr, adjacency, seen, order, level_ends, source, h, generation):
    """Single-source h-bounded BFS; fills ``order`` / ``level_ends``.

    Returns ``(total, levels)``: visited count including the source, and the
    number of level segments written to ``level_ends`` (cumulative ends,
    ``level_ends[0] == 1`` for the source's own segment).
    """
    seen[source] = generation
    order[0] = source
    level_ends[0] = 1
    levels = 1
    frontier_start = 0
    frontier_end = 1
    depth = 0
    while frontier_end > frontier_start and (h < 0 or depth < h):
        depth += 1
        write = frontier_end
        for i in range(frontier_start, frontier_end):
            v = order[i]
            for j in range(indptr[v], indptr[v + 1]):
                u = adjacency[j]
                if seen[u] < generation:
                    seen[u] = generation
                    order[write] = u
                    write += 1
        if write == frontier_end:
            break
        frontier_start = frontier_end
        frontier_end = write
        level_ends[levels] = write
        levels += 1
    return frontier_end, levels


@_njit(nogil=True, cache=True)
def _bulk_kernel(
    indptr, adjacency, seen, queue, sources, out, h, generation, use_alive, alive
):
    """h-degree of every source: one compiled loop over all traversals.

    ``seen`` carries plain generation stamps (no DEAD folding — deaths are
    tested against ``alive`` directly, matching the NumPy bulk kernel's
    vectorized frontier filter).  Returns the last generation used so the
    caller can keep the scratch's counter in sync across calls.
    """
    gen = generation
    for s in range(sources.shape[0]):
        gen += 1
        source = sources[s]
        seen[source] = gen
        queue[0] = source
        frontier_start = 0
        frontier_end = 1
        depth = 0
        while frontier_end > frontier_start and (h < 0 or depth < h):
            depth += 1
            write = frontier_end
            for i in range(frontier_start, frontier_end):
                v = queue[i]
                for j in range(indptr[v], indptr[v + 1]):
                    u = adjacency[j]
                    if seen[u] < gen and (not use_alive or alive[u] != 0):
                        seen[u] = gen
                        queue[write] = u
                        write += 1
            frontier_start = frontier_end
            frontier_end = write
        out[s] = frontier_end - 1
    return gen


_WARMED = False


def warmup_kernels() -> None:
    """Force JIT compilation (or cache load) of both kernels, once.

    Engines call this at construction so the first *measured* traversal runs at steady-state speed — compile
    latency must never pollute benchmarks, and with ``cache=True`` the cost
    after the first process on a machine is a cache read, not a compile.
    Idempotent and cheap to re-call.
    """
    global _WARMED
    if _WARMED:
        return
    indptr = np.array([0, 1, 2], dtype=np.int64)
    adjacency = np.array([1, 0], dtype=np.int64)
    seen = np.zeros(2, dtype=np.int64)
    order = np.zeros(2, dtype=np.int64)
    level_ends = np.zeros(3, dtype=np.int64)
    _bfs_kernel(indptr, adjacency, seen, order, level_ends, 0, 1, 1)
    out = np.zeros(2, dtype=np.int64)
    alive = np.ones(2, dtype=np.uint8)
    sources = np.array([0, 1], dtype=np.int64)
    _bulk_kernel(
        indptr, adjacency, seen, order, sources, out, 1, 2, False, alive
    )
    _bulk_kernel(
        indptr, adjacency, seen, order, sources, out, 1, 4, True, alive
    )
    _WARMED = True


def _as_int64(values: object) -> "np.ndarray":
    """Contiguous int64 ndarray view/copy of ``values``.

    int64 on purpose (where the NumPy scratch prefers int32): one dtype
    means one compiled specialization of each kernel, shared by every
    snapshot — RAM lists, mmap casts and zero-copy shm views alike.
    """
    return np.ascontiguousarray(values, dtype=np.int64)


class NativeBFS:
    """Reusable compiled-BFS scratch over one CSR snapshot.

    Drop-in structural twin of :class:`~repro.traversal.array_bfs.ArrayBFS`
    and :class:`~repro.traversal.numpy_bfs.NumpyBFS`: same constructor shape
    (anything exposing ``indptr`` / ``adjacency`` / ``num_vertices``), same
    :meth:`run` contract, same ``order`` / ``level_ends`` buffers the array
    peel kernels read directly, and the same :class:`AliveMask`
    install/discard protocol — which is what lets the ``native`` engine
    drive the *unchanged* peel kernels and produce bit-identical removal
    orders.  Not thread-safe; clone per worker via :meth:`clone` (the CSR
    arrays are shared, only the scratch buffers are private — and because
    the kernels release the GIL, cloned scratches genuinely run in
    parallel on a thread pool).
    """

    __slots__ = (
        "indptr",
        "adjacency",
        "num_vertices",
        "order",
        "level_ends",
        "_seen",
        "_order_buf",
        "_ends_buf",
        "_generation",
        "_active",
        "_bulk_seen",
        "_bulk_queue",
        "_bulk_generation",
    )

    def __init__(self, csr: object) -> None:
        self.indptr = _as_int64(csr.indptr)
        self.adjacency = _as_int64(csr.adjacency)
        self.num_vertices = int(csr.num_vertices)
        self.order: List[int] = []
        self.level_ends: List[int] = []
        n = max(1, self.num_vertices)
        self._seen = np.zeros(self.num_vertices, dtype=np.int64)
        self._order_buf = np.zeros(n, dtype=np.int64)
        self._ends_buf = np.zeros(n + 1, dtype=np.int64)
        self._generation = 0
        self._active: Optional[AliveMask] = None
        # Bulk-mode scratch, allocated lazily: plain generation stamps (no
        # DEAD folding) plus the shared frontier queue.
        self._bulk_seen: Optional["np.ndarray"] = None
        self._bulk_queue: Optional["np.ndarray"] = None
        self._bulk_generation = 0

    @classmethod
    def from_arrays(cls, indptr: "np.ndarray", adjacency: "np.ndarray") -> "NativeBFS":
        """Build a scratch over pre-existing arrays (no copy when int64).

        Used by the shared-memory workers, whose arrays are zero-copy
        ``np.frombuffer`` views of the shared block, and by :meth:`clone`.
        """
        return cls(_CSRArrays(indptr, adjacency))

    def clone(self) -> "NativeBFS":
        """A new scratch sharing this one's CSR arrays (for worker threads)."""
        return NativeBFS.from_arrays(self.indptr, self.adjacency)

    # ------------------------------------------------------------------ #
    # single-source traversal (peel hot path)
    # ------------------------------------------------------------------ #
    def _install(self, alive: Optional[AliveMask], hook: bool) -> None:
        """Rebuild ``seen`` for a new alive context (O(n), vectorized).

        Identical protocol to the NumPy scratch: dead vertices get the
        integer ``DEAD`` sentinel, and with ``hook`` the mask receives a
        back-reference so ``AliveMask.discard`` keeps the sentinels current.
        """
        previous = self._active
        if previous is not None and previous._seen is self._seen:
            previous._seen = None
        if alive is None:
            self._seen = np.zeros(self.num_vertices, dtype=np.int64)
        else:
            seen = np.full(self.num_vertices, DEAD, dtype=np.int64)
            mask = _alive_view(alive)
            if mask is not None and mask.size:
                seen[mask != 0] = 0
            self._seen = seen
            if hook:
                alive._seen = self._seen
        self._active = alive

    def run(
        self,
        source: int,
        h: Optional[int],
        alive: Optional[AliveMask] = None,
        counters: Counters = NULL_COUNTERS,
        hook: bool = True,
    ) -> int:
        """BFS from index ``source`` truncated at depth ``h``.

        Identical contract (and identical visit order, level segmentation
        and counter recording) to :meth:`ArrayBFS.run
        <repro.traversal.array_bfs.ArrayBFS.run>`; the level loop runs as
        one compiled, GIL-releasing kernel call.
        """
        if alive is not self._active:
            self._install(alive, hook)
        if self._generation + 1 >= DEAD:
            # Same rollover guard as ArrayBFS: reinstalling resets every
            # stamp to 0/DEAD, so restarting from generation 1 is sound.
            self._install(self._active, hook)
            self._generation = 0
        self._generation += 1
        total, levels = _bfs_kernel(
            self.indptr,
            self.adjacency,
            self._seen,
            self._order_buf,
            self._ends_buf,
            source,
            -1 if h is None else h,
            self._generation,
        )
        self.order = self._order_buf[:total].tolist()
        self.level_ends = self._ends_buf[:levels].tolist()
        counters.record_bfs(total - 1)
        return total - 1

    def visited(self) -> List[int]:
        """Visited vertex indices of the last run, source excluded (a copy)."""
        return self.order[1:]

    def visited_with_distance(self) -> List[Tuple[int, int]]:
        """``(index, distance)`` pairs of the last run, source excluded."""
        out: List[Tuple[int, int]] = []
        order = self.order
        start = 1
        for depth, end in enumerate(self.level_ends[1:], start=1):
            out.extend((u, depth) for u in order[start:end])
            start = end
        return out

    # ------------------------------------------------------------------ #
    # many-sources bulk mode (the initial h-degree pass)
    # ------------------------------------------------------------------ #
    def bulk(
        self,
        sources: Sequence[int],
        h: Optional[int],
        alive: Union[AliveMask, "np.ndarray", None] = None,
        counters: Counters = NULL_COUNTERS,
    ) -> "np.ndarray":
        """h-degree of every source, one compiled kernel call for all of them.

        ``alive`` may be an :class:`AliveMask`, a raw ``uint8`` ndarray view
        (the shared-memory workers pass the mapped region directly), or
        ``None``.  Records one BFS per source into ``counters`` (batch
        form; totals identical to the per-source engines).  Returns an
        int64 ndarray aligned with ``sources``.
        """
        src = _as_int64(list(sources))
        out = np.zeros(src.size, dtype=np.int64)
        if src.size == 0:
            counters.record_bfs_batch(0, 0)
            return out
        n = self.num_vertices
        if self._bulk_seen is None:
            self._bulk_seen = np.zeros(n, dtype=np.int64)
            self._bulk_queue = np.zeros(max(1, n), dtype=np.int64)
            self._bulk_generation = 0
        if self._bulk_generation + src.size >= DEAD - 1:
            # Rollover guard, mirroring the single-source scratches: a
            # wrapped counter would make stale stamps look visited.
            self._bulk_seen[:] = 0
            self._bulk_generation = 0
        mask = _alive_view(alive)
        use_alive = mask is not None
        if not use_alive:
            mask = _EMPTY_ALIVE
        self._bulk_generation = _bulk_kernel(
            self.indptr,
            self.adjacency,
            self._bulk_seen,
            self._bulk_queue,
            src,
            out,
            -1 if h is None else h,
            self._bulk_generation,
            use_alive,
            mask,
        )
        counters.record_bfs_batch(int(src.size), int(out.sum()))
        return out


#: Placeholder alive array for maskless bulk calls — Numba needs a
#: consistent argument type, the kernel never reads it when ``use_alive``
#: is False.
_EMPTY_ALIVE = np.ones(1, dtype=np.uint8)


class _CSRArrays:
    """Minimal CSR-shaped holder for :meth:`NativeBFS.from_arrays`."""

    __slots__ = ("indptr", "adjacency", "num_vertices")

    def __init__(self, indptr: "np.ndarray", adjacency: "np.ndarray") -> None:
        self.indptr = indptr
        self.adjacency = adjacency
        self.num_vertices = len(indptr) - 1
