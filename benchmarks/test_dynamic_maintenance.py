"""Benchmark: dynamic (k,h)-core maintenance vs from-scratch recomputation.

Three claims are asserted, not assumed:

1. **Single-edge incremental updates are >= 5x faster than a full
   recomputation** on the benchmark graph.  Deletions are the
   demonstration workload: their dirty regions are provably local (a fall
   always chain-links back to the deleted edge), so the re-peel touches a
   few dozen vertices of a ~1.6k-vertex graph.
2. **A 1k-update mixed insert/delete stream, applied in batches, beats
   recompute-after-every-update by >= 5x** end to end — the streaming
   workload the engine exists for.
3. **The fallback path triggers on large dirty regions** (an insertion's
   rise-closure flooding a locally homogeneous graph; a deletion whose seed
   region is the whole graph) and stays exact.

The benchmark graph is a perturbed grid (road-network stand-in): bounded
h-neighborhoods make locality visible, and |V| is large enough that a full
recomputation costs tens of milliseconds.  Set ``KH_CORE_BENCH_QUICK=1``
(the CI smoke mode) to shrink the graph and the stream.

The speedup asserts carry the ``bench`` marker
(``test_single_edge_updates_beat_full_recomputation_gate`` and
``test_update_stream_beats_recompute_per_update_gate``; run them with ``-m
bench``); their correctness halves run by default on the quick-mode grid.
"""

from __future__ import annotations

import os
import statistics
import time

import pytest

from repro.core import core_decomposition
from repro.dynamic import MODE_INCREMENTAL, DynamicKHCore, random_update_stream
from repro.graph.generators import complete_graph, road_network_graph

H = 2

QUICK = os.environ.get("KH_CORE_BENCH_QUICK", "") not in ("", "0")

#: Grid side of the benchmark graph and length of the replayed stream.
GRID_SIDE = 28 if QUICK else 40
STREAM_LENGTH = 200 if QUICK else 1000
#: The quick-mode sizes, used by the default run's correctness check.
QUICK_GRID_SIDE = 28
QUICK_STREAM_LENGTH = 200
BATCH_SIZE = 32

#: Required speedups (generous: locally measured margins are >= 5x these).
REQUIRED_SINGLE_UPDATE_SPEEDUP = 5.0
REQUIRED_STREAM_SPEEDUP = 5.0


def benchmark_graph():
    return road_network_graph(GRID_SIDE, GRID_SIDE, seed=0)


def _full_seconds(graph) -> float:
    """Best-of-two from-scratch decompositions (shaves scheduler noise)."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        core_decomposition(graph, H)
        best = min(best, time.perf_counter() - start)
    return best


def test_single_edge_updates_beat_full_recomputation():
    """Correctness half of the single-update gate: incremental and exact."""
    graph = road_network_graph(QUICK_GRID_SIDE, QUICK_GRID_SIDE, seed=0)
    engine = DynamicKHCore(graph.copy(), h=H)
    deletions = random_update_stream(graph, 30, insert_fraction=0.0, seed=1)
    modes = [engine.apply(*update).mode for update in deletions]
    assert modes.count(MODE_INCREMENTAL) > len(modes) // 2
    assert engine.core_numbers() == core_decomposition(engine.graph,
                                                       H).core_index


@pytest.mark.bench
def test_single_edge_updates_beat_full_recomputation_gate():
    """Median incremental single-edge update must be >= 5x faster."""
    graph = benchmark_graph()
    full_seconds = _full_seconds(graph)

    engine = DynamicKHCore(graph.copy(), h=H)
    deletions = random_update_stream(graph, 30, insert_fraction=0.0, seed=1)
    durations = []
    modes = []
    for update in deletions:
        start = time.perf_counter()
        summary = engine.apply(*update)
        durations.append(time.perf_counter() - start)
        modes.append(summary.mode)

    median_update = statistics.median(durations)
    speedup = full_seconds / median_update if median_update else float("inf")
    print(f"\n|V|={graph.num_vertices} |E|={graph.num_edges} "
          f"full={full_seconds * 1000:.1f}ms "
          f"median-update={median_update * 1000:.2f}ms "
          f"speedup={speedup:.1f}x "
          f"(required: {REQUIRED_SINGLE_UPDATE_SPEEDUP}x) "
          f"peak-universe={engine.stats.peak_universe_size}")

    # The updates must actually exercise the incremental path, and its
    # result must be exact.
    assert modes.count(MODE_INCREMENTAL) > len(modes) // 2
    assert engine.core_numbers() == core_decomposition(engine.graph,
                                                       H).core_index
    assert speedup >= REQUIRED_SINGLE_UPDATE_SPEEDUP, (
        f"incremental single-edge updates degraded to {speedup:.1f}x over "
        f"full recomputation (required >= {REQUIRED_SINGLE_UPDATE_SPEEDUP}x)"
    )


def test_update_stream_beats_recompute_per_update():
    """Correctness half of the stream gate: replay equals from-scratch."""
    graph = road_network_graph(QUICK_GRID_SIDE, QUICK_GRID_SIDE, seed=0)
    updates = random_update_stream(graph, QUICK_STREAM_LENGTH, seed=2)
    engine = DynamicKHCore(graph.copy(), h=H)
    for offset in range(0, len(updates), BATCH_SIZE):
        engine.apply_batch(updates[offset:offset + BATCH_SIZE])
    assert engine.core_numbers() == core_decomposition(engine.graph,
                                                       H).core_index


@pytest.mark.bench
def test_update_stream_beats_recompute_per_update_gate():
    """Batched replay of the update stream must be >= 5x faster end to end."""
    graph = benchmark_graph()
    full_seconds = _full_seconds(graph)
    updates = random_update_stream(graph, STREAM_LENGTH, seed=2)
    baseline = full_seconds * len(updates)

    engine = DynamicKHCore(graph.copy(), h=H)
    start = time.perf_counter()
    for offset in range(0, len(updates), BATCH_SIZE):
        engine.apply_batch(updates[offset:offset + BATCH_SIZE])
    elapsed = time.perf_counter() - start

    stats = engine.stats
    speedup = baseline / elapsed if elapsed else float("inf")
    print(f"\nstream: {len(updates)} updates in batches of {BATCH_SIZE}: "
          f"{elapsed:.2f}s vs recompute-per-update {baseline:.2f}s "
          f"=> {speedup:.1f}x (required: {REQUIRED_STREAM_SPEEDUP}x); "
          f"{stats.incremental_repeels} incremental / "
          f"{stats.full_recomputes} full batches")

    assert engine.core_numbers() == core_decomposition(engine.graph,
                                                       H).core_index
    assert speedup >= REQUIRED_STREAM_SPEEDUP, (
        f"stream replay degraded to {speedup:.1f}x over per-update "
        f"recomputation (required >= {REQUIRED_STREAM_SPEEDUP}x)"
    )


def test_fallback_triggers_on_large_dirty_regions():
    """Both fallback causes fire on realistic inputs — and stay exact."""
    # Cause 1: an insertion's rise closure floods the locally homogeneous
    # grid (no vertex is saturated, so no local certificate can refute a
    # distant rise) and exceeds the region threshold.
    graph = benchmark_graph()
    engine = DynamicKHCore(graph.copy(), h=H)
    corner_a = 0
    corner_b = graph.num_vertices - 1
    summary = engine.insert_edge(corner_a, corner_b)
    assert summary.mode == "full"
    assert engine.stats.full_recomputes == 1
    assert engine.core_numbers() == core_decomposition(engine.graph,
                                                       H).core_index

    # Cause 2: in a complete graph the seed region alone is the whole
    # vertex set, so even a deletion falls back under the default policy.
    dense = DynamicKHCore(complete_graph(40), h=H)
    summary = dense.delete_edge(0, 1)
    assert summary.mode == "full"
    assert dense.stats.full_recomputes == 1
    assert dense.core_numbers() == core_decomposition(dense.graph,
                                                      H).core_index
