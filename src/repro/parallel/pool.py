"""Persistent process pool over a shared-memory CSR export.

:class:`SharedMemoryExecutor` is the process-lifecycle layer of the parallel
subsystem: it owns one :class:`~concurrent.futures.ProcessPoolExecutor`
(spawned lazily, reused across bulk passes) and at most one live
:class:`~repro.parallel.shm.SharedCSRExport` at a time.  The division of
labor:

* :meth:`ensure_export` — version-stamped (re-)export: whenever the engine's
  CSR snapshot object changes (initial build, or a
  :meth:`~repro.core.backends.CSREngine.refresh` after graph mutation), the
  generation counter is bumped, a fresh block is exported and the previous
  one unlinked.  Workers notice the new name in the task descriptor and
  re-attach; stale attachments are dropped.
* :meth:`bulk_h_degrees` — one synchronous fan-out: write the alive region,
  cut the targets into degree-weighted chunks
  (:func:`~repro.core.parallel.chunk_plan`), submit ``(chunk, h,
  generation)`` descriptors, merge the returned ``(index, degree)`` pairs
  and per-task counters.
* :meth:`close` — teardown: shut the pool down and unlink the export.  Any
  error *or* ``KeyboardInterrupt`` inside a dispatch triggers the same
  teardown before the exception propagates, and a :mod:`weakref` finalizer
  backstops interpreter exit, so ``/dev/shm`` segments are never leaked.

Engines always dispatch through the subclass
:class:`~repro.resilience.supervisor.SupervisedExecutor`, which inherits
this lifecycle and overrides only :meth:`bulk_h_degrees` with retries, pool
rebuilds and deadlines.  The raw method here is the fault-free baseline the
supervision overhead is measured against.

``fork`` (the platform default on Linux) and ``spawn`` start methods both
work and produce identical results; ``spawn`` pays a per-worker interpreter
start-up plus re-import, ``fork`` only a copy-on-write fork.
"""

from __future__ import annotations

import multiprocessing
import weakref
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, Iterable, Optional, Sequence

from repro.errors import ParameterError
from repro.graph.csr import CSRGraph
from repro.instrumentation import Counters, NULL_COUNTERS
from repro.parallel.shm import FileCSRExport, SharedCSRExport
from repro.parallel.worker import run_chunk
from repro.core.parallel import chunk_plan
from repro.traversal.array_bfs import AliveMask

#: How many chunks each worker gets on average.  Oversubscription lets the
#: pool balance skewed degree distributions dynamically: a worker that drew
#: a heavy chunk keeps crunching while the others drain the queue.
DEFAULT_OVERSUBSCRIPTION = 4


def _shutdown_pool(pool: Any) -> None:
    """Shut a process pool down, tolerating one that already crashed.

    A pool whose workers died abruptly (``BrokenProcessPool``) can raise
    from ``shutdown()`` while flushing its management pipes; swallowing
    that here is what guarantees the shm export below it still gets
    unlinked — a crashed pool must never leak the shared block.
    """
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass


def _teardown(state: Dict[str, Any]) -> None:
    """Shut the pool down and unlink the export (idempotent, finalizer-safe)."""
    pool = state.get("pool")
    state["pool"] = None
    if pool is not None:
        _shutdown_pool(pool)
    export = state.get("export")
    state["export"] = None
    if export is not None:
        export.close()


class SharedMemoryExecutor:
    """Persistent worker pool attached to a shared-memory CSR block."""

    def __init__(self, num_workers: int,
                 start_method: Optional[str] = None) -> None:
        if num_workers < 1:
            raise ParameterError("num_workers must be a positive integer")
        self.num_workers = num_workers
        self.start_method = start_method
        self._mp_context = multiprocessing.get_context(start_method)
        # Pool and export live in a plain dict shared with the finalizer so
        # the finalizer never holds (and never needs) a reference to self.
        self._state: Dict[str, Any] = {"pool": None, "export": None}
        self._exported_for: Optional[CSRGraph] = None
        self._generation = 0
        self._alive_stamp = 0
        self._finalizer = weakref.finalize(self, _teardown, self._state)

    # -- lifecycle ------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        """True once :meth:`close` (or the error-path teardown) has run."""
        return not self._finalizer.alive

    @property
    def shm_name(self) -> Optional[str]:
        """Name of the live shared block (None before export / after close)."""
        export = self._state["export"]
        return export.name if export is not None else None

    def invalidate_export(self) -> None:
        """Unlink the current export; the next dispatch re-exports.

        O(1) plus the unlink — used by :meth:`CSREngine.refresh
        <repro.core.backends.CSREngine.refresh>` so a stream of graph
        mutations does not pay an O(n + m) array copy per refresh when no
        process dispatch happens in between.
        """
        export = self._state["export"]
        self._state["export"] = None
        self._exported_for = None
        if export is not None:
            export.close()

    def ensure_export(self, csr: CSRGraph) -> None:
        """Export ``csr`` unless it is already the live export.

        Identity-keyed: engines build a *new* ``CSRGraph`` object on every
        refresh, so object identity doubles as a version stamp.  The old
        block is unlinked only after the new one exists, and workers switch
        atomically because every task names its block explicitly.

        The export style follows the snapshot's storage tier: an in-RAM
        snapshot is copied into a shared-memory block
        (:class:`SharedCSRExport`); an mmap-backed snapshot already lives in
        a block file, so only its small alive mask gets a segment and
        workers map the file directly (:class:`FileCSRExport`).
        """
        if self.closed:
            raise ParameterError("the shared-memory executor is closed")
        if self._exported_for is csr:
            return
        previous = self._state["export"]
        self._generation += 1
        if csr.storage_kind == "mmap":
            export: Any = FileCSRExport(csr, self._generation)
        else:
            export = SharedCSRExport(csr, self._generation)
        self._state["export"] = export
        self._exported_for = csr
        if previous is not None:
            previous.close()

    def close(self) -> None:
        """Shut down the pool and unlink the export (idempotent)."""
        self._exported_for = None
        if self._finalizer.alive:
            self._finalizer()

    def __enter__(self) -> "SharedMemoryExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- dispatch ------------------------------------------------------- #
    def _pool(self) -> ProcessPoolExecutor:
        pool = self._state["pool"]
        if pool is None:
            pool = ProcessPoolExecutor(max_workers=self.num_workers,
                                       mp_context=self._mp_context)
            self._state["pool"] = pool
        return pool

    def rebuild_pool(self) -> None:
        """Discard the (typically broken) process pool, keeping the export.

        The next submit lazily spawns a fresh pool against the *same*
        shared block, so a supervisor can re-dispatch only the unfinished
        chunks without paying a re-export.
        """
        pool = self._state["pool"]
        self._state["pool"] = None
        if pool is not None:
            _shutdown_pool(pool)

    def prepare(self, csr: CSRGraph,
                alive: Optional[AliveMask] = None) -> tuple:
        """Export ``csr`` and write the alive region; return dispatch state.

        Returns ``(layout, use_alive, alive_stamp)`` — everything a task
        descriptor needs.  Factored out of :meth:`bulk_h_degrees` so the
        supervising subclass can drive submission and retry itself.
        """
        self.ensure_export(csr)
        export = self._state["export"]
        use_alive = alive is not None
        if use_alive:
            export.write_alive(bytes(alive.mask))
            self._alive_stamp += 1
        return export.layout(), use_alive, self._alive_stamp

    def submit_chunk(self, layout: Any, chunk: Sequence[int], h: int,
                     use_alive: bool, alive_stamp: int,
                     engine_kind: str = "csr",
                     fault: Optional[tuple] = None) -> Any:
        """Submit one chunk to the pool, returning its future.

        ``fault`` is an optional injected-fault directive forwarded to the
        worker (chaos testing only; see :mod:`repro.resilience.faults`).
        """
        return self._pool().submit(run_chunk, layout, list(chunk), h,
                                   use_alive, alive_stamp, engine_kind,
                                   fault)

    def bulk_h_degrees(self, csr: CSRGraph, h: int,
                       targets: Iterable[int],
                       alive: Optional[AliveMask] = None,
                       counters: Counters = NULL_COUNTERS,
                       weights: Optional[Sequence[int]] = None,
                       engine_kind: str = "csr"
                       ) -> Dict[int, int]:
        """h-degree of every index in ``targets``, fanned over the pool.

        ``weights`` (typically the plain degree of each target) steers the
        chunk planner toward balanced per-chunk work on skewed graphs.  The
        dispatch is synchronous: the alive region is written before any task
        is submitted and no task outlives the call, so workers always read a
        consistent mask.  Any failure — a worker exception, a broken pool,
        ``KeyboardInterrupt`` — tears the executor down (pool shutdown +
        shm unlink) before propagating.

        ``engine_kind`` rides along in each task descriptor and selects the
        worker-side traversal kernel (``"csr"`` interpreted loop /
        ``"numpy"`` vectorized block kernel over ``np.frombuffer`` views of
        the same shared block) — see :func:`repro.parallel.worker.run_chunk`.
        """
        indices = list(targets)
        if not indices:
            return {}
        layout, use_alive, alive_stamp = self.prepare(csr, alive)
        chunks = chunk_plan(indices,
                            self.num_workers * DEFAULT_OVERSUBSCRIPTION,
                            weights=weights)
        merged: Dict[int, int] = {}
        try:
            futures = [
                self.submit_chunk(layout, chunk, h, use_alive, alive_stamp,
                                  engine_kind)
                for chunk in chunks
            ]
            for future in futures:
                pairs, local = future.result()
                merged.update(pairs)
                if counters is not NULL_COUNTERS:
                    counters.merge(local)
        except BaseException:
            # Teardown before propagating so no /dev/shm segment outlives a
            # failed dispatch (worker exception or KeyboardInterrupt alike).
            self.close()
            raise
        return merged
