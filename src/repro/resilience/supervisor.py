"""Supervised shared-memory process pool.

:class:`SupervisedExecutor` subclasses
:class:`~repro.parallel.pool.SharedMemoryExecutor` — it inherits the pool
and export lifecycle and overrides only
:meth:`~repro.parallel.pool.SharedMemoryExecutor.bulk_h_degrees`, the
surface the engines call — and survives the failures the raw pool cannot:

* a **transient worker exception** (an ``OSError`` such as a lost
  shared-memory attach race, or an injected fault) re-dispatches just that
  chunk, with exponential backoff + jitter, up to
  ``RetryPolicy.max_retries`` times — deterministic application errors
  (anything else the chunk raises) propagate unchanged on the first
  failure, preserving the raw executor's error contract;
* a **broken pool** (worker killed abruptly — every pending future is lost)
  rebuilds the pool against the *same* shared export and re-dispatches only
  the unfinished chunks, up to ``RetryPolicy.max_pool_rebuilds`` times;
* a **stalled round** (per-chunk deadline × queue depth exceeded) is treated
  like a broken pool: the stragglers are abandoned to the old pool and their
  chunks re-dispatched on a fresh one.

When the budgets are exhausted the dispatch raises
:class:`~repro.errors.WorkerPoolError` (or
:class:`~repro.errors.DeadlineExceededError` when deadlines were the cause),
which the engine's degradation ladder catches to finish the pass on the
thread path (inline on the GIL-bound engines) — a decomposition always
completes.

Determinism: successful chunk results are buffered and merged in chunk-plan
order (the order the raw pool merges in), and worker counters are
accumulated into a local scratch that reaches the caller's counters only
when the whole dispatch succeeds — so a pass that fails halfway and is
re-run by the ladder never double-counts, and a fault-free supervised run
is bit-identical (results *and* counters) to the raw pool.
"""

from __future__ import annotations

import math
import random
import time
from concurrent.futures import BrokenExecutor, TimeoutError as FuturesTimeout
from concurrent.futures import as_completed
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import (
    DeadlineExceededError,
    FaultInjectedError,
    WorkerPoolError,
)
from repro.graph.csr import CSRGraph
from repro.instrumentation import Counters, NULL_COUNTERS
from repro.parallel.pool import DEFAULT_OVERSUBSCRIPTION, SharedMemoryExecutor
from repro.core.parallel import chunk_plan
from repro.resilience import faults
from repro.resilience.policies import (
    ResilienceReport,
    RetryPolicy,
    chunk_deadline_from_env,
)
from repro.traversal.array_bfs import AliveMask


class SupervisedExecutor(SharedMemoryExecutor):
    """Fault-tolerant :class:`SharedMemoryExecutor`: retries, pool rebuilds
    and deadlines around the same chunk submission and export lifecycle."""

    def __init__(self, num_workers: int,
                 start_method: Optional[str] = None,
                 retry: Optional[RetryPolicy] = None,
                 chunk_deadline: Optional[float] = None,
                 report: Optional[ResilienceReport] = None) -> None:
        super().__init__(num_workers, start_method=start_method)
        self.retry = retry if retry is not None else RetryPolicy()
        self.chunk_deadline = (
            chunk_deadline if chunk_deadline is not None
            else chunk_deadline_from_env())
        self.report = report if report is not None else ResilienceReport()
        self._rng = random.Random(self.retry.seed)
        self._dispatch_seq = 0

    # -- bookkeeping ---------------------------------------------------- #
    def _note(self, counters: Counters, event: str, amount: int = 1) -> None:
        """Record a recovery event in the report and the run's counters."""
        if amount <= 0:
            return
        self.report.note(event, amount)
        if counters is not NULL_COUNTERS:
            counters.bump(f"resilience.{event}", amount)

    def _chunk_fault(self, scope: str) -> Optional[Tuple[Any, ...]]:
        """Parent-side fault probe for one chunk submission.

        Kill/stall schedules are evaluated here — in the parent, on one
        deterministic counter — rather than inside workers, where every
        freshly respawned worker would restart the schedule and re-kill
        forever.  ``scope`` is the dispatch generation, so ``once``
        schedules fire once *per dispatch*.
        """
        plan = faults.active_plan()
        if plan is None:
            return None
        if plan.should_fire("worker.kill", scope=scope):
            self.report.note("faults_injected")
            return ("kill",)
        if plan.should_fire("worker.stall", scope=scope):
            self.report.note("faults_injected")
            return ("stall", plan.stall_seconds)
        return None

    def _round_timeout(self, queued: int) -> Optional[float]:
        """Deadline for one wait round: per-chunk budget × queue depth."""
        if self.chunk_deadline is None:
            return None
        waves = max(1, math.ceil(queued / self.num_workers))
        return self.chunk_deadline * waves

    # -- dispatch ------------------------------------------------------- #
    def bulk_h_degrees(self, csr: CSRGraph, h: int,
                       targets: Iterable[int],
                       alive: Optional[AliveMask] = None,
                       counters: Counters = NULL_COUNTERS,
                       weights: Optional[Sequence[int]] = None,
                       engine_kind: str = "csr") -> Dict[int, int]:
        """Supervised fan-out of the bulk h-degree pass.

        Same contract as :meth:`SharedMemoryExecutor.bulk_h_degrees`; see
        the module docstring for the recovery semantics layered on top.
        """
        indices = list(targets)
        if not indices:
            return {}
        self._dispatch_seq += 1
        scope = f"dispatch-{self._dispatch_seq}"
        try:
            layout, use_alive, alive_stamp = self.prepare(csr, alive)
            chunks = chunk_plan(
                indices,
                self.num_workers * DEFAULT_OVERSUBSCRIPTION,
                weights=weights)
            results, gathered = self._run_chunks(
                chunks, layout, h, use_alive, alive_stamp, engine_kind,
                scope, counters)
        except BaseException:
            # Same contract as the raw pool: no failure mode leaks the pool
            # or the shm block.
            self.close()
            raise
        merged: Dict[int, int] = {}
        for chunk_result in results:
            merged.update(chunk_result)
        if counters is not NULL_COUNTERS:
            counters.merge(gathered)
        return merged

    def _run_chunks(self, chunks: Sequence[Sequence[int]], layout: Any,
                    h: int, use_alive: bool, alive_stamp: int,
                    engine_kind: str, scope: str, counters: Counters
                    ) -> Tuple[List[Dict[int, int]], Counters]:
        """Drive every chunk to completion through retries and rebuilds."""
        pending = set(range(len(chunks)))
        results: List[Optional[Dict[int, int]]] = [None] * len(chunks)
        chunk_counters: List[Optional[Counters]] = [None] * len(chunks)
        attempts = [0] * len(chunks)
        rebuilds = 0
        deadline_was_cause = False
        while pending:
            futures: Dict[Any, int] = {}
            broken = False
            try:
                for chunk_id in sorted(pending):
                    future = self.submit_chunk(
                        layout, chunks[chunk_id], h, use_alive, alive_stamp,
                        engine_kind, fault=self._chunk_fault(scope))
                    futures[future] = chunk_id
            except (BrokenExecutor, RuntimeError):
                # Pool already broken (or shut down) at submit time.
                broken = True
            timed_out = False
            if futures and not broken:
                broken, timed_out = self._collect_round(
                    futures, pending, results, chunk_counters, attempts,
                    counters)
            if not pending:
                break
            if not broken and not timed_out:
                # Healthy pool, chunk-level retries pending: loop around
                # and re-submit them.
                continue
            # The pool is gone (abrupt worker death) or the round blew its
            # deadline: every future still in flight is wasted work.
            deadline_was_cause = deadline_was_cause or timed_out
            rebuilds += 1
            self._note(counters, "pool_rebuilds")
            self._note(counters, "wasted_chunks", len(futures))
            if timed_out:
                self._note(counters, "deadline_hits")
            if rebuilds > self.retry.max_pool_rebuilds:
                budget = self.chunk_deadline or 0.0
                if deadline_was_cause and budget:
                    raise DeadlineExceededError(
                        f"bulk dispatch exceeded its {budget:.3g}s per-chunk "
                        f"deadline after {rebuilds} pool rebuilds", budget)
                raise WorkerPoolError(
                    f"process pool broke {rebuilds} times during one "
                    f"dispatch (budget: {self.retry.max_pool_rebuilds} "
                    f"rebuilds); degrading")
            self.rebuild_pool()
            time.sleep(self.retry.delay(rebuilds, self._rng))
        gathered = Counters()
        for chunk_id in range(len(chunks)):
            local = chunk_counters[chunk_id]
            if local is not None:
                gathered.merge(local)
        return [result for result in results if result is not None], gathered

    def _collect_round(self, futures: Dict[Any, int], pending: set,
                       results: List[Optional[Dict[int, int]]],
                       chunk_counters: List[Optional[Counters]],
                       attempts: List[int], counters: Counters
                       ) -> Tuple[bool, bool]:
        """Consume one round of futures; returns ``(broken, timed_out)``."""
        timeout = self._round_timeout(len(futures))
        try:
            for future in as_completed(list(futures), timeout=timeout):
                chunk_id = futures.pop(future)
                try:
                    pairs, local = future.result()
                except BrokenExecutor:
                    futures[future] = chunk_id
                    return True, False
                except Exception as error:
                    if not isinstance(error, (OSError, FaultInjectedError)):
                        # A deterministic application error (bad target
                        # index, corrupt input): retrying cannot help, and
                        # the raw executor's callers expect the original
                        # exception type.
                        raise
                    attempts[chunk_id] += 1
                    self._note(counters, "retries")
                    if attempts[chunk_id] > self.retry.max_retries:
                        raise WorkerPoolError(
                            f"chunk {chunk_id} failed "
                            f"{attempts[chunk_id]} times (budget: "
                            f"{self.retry.max_retries} retries): {error}"
                        ) from error
                    time.sleep(
                        self.retry.delay(attempts[chunk_id], self._rng))
                else:
                    results[chunk_id] = dict(pairs)
                    chunk_counters[chunk_id] = local
                    pending.discard(chunk_id)
        except FuturesTimeout:
            return False, True
        return False, False
