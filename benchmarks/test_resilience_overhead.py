"""Benchmark: the cost of supervision — and the cost of recovery.

The supervised executor promises two things worth measuring rather than
assuming, recorded in ``BENCH_PR10.json`` (via
:func:`bench_utils.write_bench_json`, so CI uploads the artifact):

1. **Zero-fault overhead** — with no fault armed, routing every bulk
   dispatch through :class:`~repro.resilience.SupervisedExecutor`
   (deadline tracking, retry bookkeeping, result buffering) must cost at
   most ``MAX_OVERHEAD_RATIO`` over the raw shared-memory pool.  Both
   executors are built directly and run the identical chunk plan — same
   CSR snapshot, same targets, same weights — against a warm pool.
2. **One-kill completion** — a worker SIGKILLed mid-decomposition
   (``worker.kill=1``: exactly one kill, first dispatch) must finish with
   a bit-identical result in at most ``MAX_KILL_SLOWDOWN``× the
   fault-free wall time.  The slowdown budget covers one pool rebuild,
   the retry backoff, and the re-dispatch of the chunks the dead worker
   took with it.

Set ``KH_CORE_BENCH_QUICK=1`` (the CI smoke mode) to shrink the graph and
relax the bars: at small n the fixed per-dispatch costs dominate the work
being supervised, and shared CI runners add wall-clock noise.  The strict
ratios are enforced in the full-size run.

Both tests assert wall-clock ratios, so they carry the ``bench`` marker:
the default pytest run deselects them; run them with ``-m bench``.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core import core_decomposition
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph
from repro.parallel import SharedMemoryExecutor
from repro.resilience import SupervisedExecutor, armed
from repro.runtime import ExecutionContext

from bench_utils import write_bench_json  # noqa: E402

ARTIFACT = "BENCH_PR10.json"
H = 2

QUICK = os.environ.get("KH_CORE_BENCH_QUICK", "") not in ("", "0")

#: Clique size of the relaxed-caveman benchmark graph (cliques × size).
NUM_CLIQUES = 12 if QUICK else 30
CLIQUE_SIZE = 14 if QUICK else 22

#: Timed repetitions per executor mode (best-of, warm pool).
OVERHEAD_REPS = 3 if QUICK else 9

#: Supervision must cost <= 5% over the raw pool at full size.
MAX_OVERHEAD_RATIO = 1.05
#: Quick-mode bar: tiny dispatches amortize nothing, CI runners are noisy.
MAX_OVERHEAD_RATIO_QUICK = 1.35

#: One kill must not double the fault-free wall time at full size.
MAX_KILL_SLOWDOWN = 2.0
#: Quick-mode bar: the (fixed-cost) pool rebuild is large relative to a
#: short fault-free run.
MAX_KILL_SLOWDOWN_QUICK = 3.5


def _xdist_guard():
    if os.environ.get("PYTEST_XDIST_WORKER"):
        pytest.skip("wall-clock ratios are meaningless under xdist")


def _bench_graph():
    graph = gen.relaxed_caveman_graph(NUM_CLIQUES, CLIQUE_SIZE, 0.15, seed=7)
    # Uneven degrees so the LPT chunk plan produces genuinely distinct
    # chunks (same topology family as the chaos battery, scaled up).
    for i in range(0, graph.num_vertices, 5):
        graph.add_edge(i, (i * 13 + 17) % graph.num_vertices)
    return graph


def _best_of(fn, reps):
    best = float("inf")
    result = None
    for _ in range(reps):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


@pytest.mark.bench
def test_supervision_overhead_without_faults():
    """Supervised vs raw pool on the identical warm bulk-pass workload."""
    _xdist_guard()
    graph = _bench_graph()
    max_ratio = MAX_OVERHEAD_RATIO_QUICK if QUICK else MAX_OVERHEAD_RATIO
    csr = CSRGraph.from_graph(graph)
    targets = list(range(csr.num_vertices))
    indptr = csr.indptr
    weights = [indptr[i + 1] - indptr[i] for i in targets]

    def measure(executor):
        def dispatch():
            return executor.bulk_h_degrees(csr, H, targets, weights=weights)

        with executor:
            dispatch()  # spawn + warm the pool, export the snapshot
            return _best_of(dispatch, OVERHEAD_REPS)

    raw_seconds, raw_degrees = measure(SharedMemoryExecutor(2))
    supervised_seconds, supervised_degrees = measure(SupervisedExecutor(2))

    assert supervised_degrees == raw_degrees
    ratio = supervised_seconds / raw_seconds
    write_bench_json(ARTIFACT, {"supervision_overhead": {
        "graph": f"relaxed_caveman({NUM_CLIQUES}, {CLIQUE_SIZE})",
        "num_vertices": graph.num_vertices,
        "h": H,
        "reps": OVERHEAD_REPS,
        "raw_seconds": raw_seconds,
        "supervised_seconds": supervised_seconds,
        "overhead_ratio": ratio,
        "max_ratio": max_ratio,
    }})
    assert ratio <= max_ratio, (
        f"supervised dispatch cost {ratio:.3f}x the raw pool "
        f"(bar {max_ratio}x)")


@pytest.mark.bench
def test_one_kill_completes_within_budget():
    """SIGKILL one worker mid-run: bounded recovery, identical output."""
    _xdist_guard()
    graph = _bench_graph()
    max_slowdown = MAX_KILL_SLOWDOWN_QUICK if QUICK else MAX_KILL_SLOWDOWN

    def run():
        with ExecutionContext(graph, backend="csr", executor="process",
                              num_workers=2) as context:
            started = time.perf_counter()
            result = core_decomposition(graph, H, algorithm="h-BZ",
                                        context=context)
            seconds = time.perf_counter() - started
            report = context.resilience
        return seconds, result, report

    # Warm OS caches / import costs with a throwaway run, then measure.
    run()
    fault_free_seconds, expected, _ = run()
    with armed("worker.kill=1;seed=1"):
        killed_seconds, got, report = run()

    assert got.core_index == expected.core_index
    assert got.removal_order == expected.removal_order
    assert report is not None and report.pool_rebuilds >= 1
    slowdown = killed_seconds / fault_free_seconds
    write_bench_json(ARTIFACT, {"one_kill_completion": {
        "graph": f"relaxed_caveman({NUM_CLIQUES}, {CLIQUE_SIZE})",
        "num_vertices": graph.num_vertices,
        "h": H,
        "fault_free_seconds": fault_free_seconds,
        "one_kill_seconds": killed_seconds,
        "slowdown_ratio": slowdown,
        "max_ratio": max_slowdown,
        "pool_rebuilds": report.pool_rebuilds,
        "wasted_chunks": report.wasted_chunks,
    }})
    assert slowdown <= max_slowdown, (
        f"one-kill run took {slowdown:.2f}x fault-free "
        f"(bar {max_slowdown}x)")
