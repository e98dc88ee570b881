"""Benchmark: index-served queries vs recomputation, refresh vs rebuild.

The persistent index trades one up-front spectrum build for repeated
queries at table-read cost.  This benchmark measures both sides of that
trade on a collaboration-network stand-in and records them in
``BENCH_PR7.json`` (via :func:`bench_utils.write_bench_json`, so CI uploads
the artifact):

1. **Repeated query classes** — point core-number lookups, full vertex
   spectra and membership thresholds, answered (a) from the index and
   (b) by from-scratch decomposition of the current graph, per query.
   Asserted: the index is at least ``MIN_QUERY_SPEEDUP``× faster per
   query on every class.
2. **Small update batches** — a local-churn deletion stream applied
   (a) through :class:`IndexRefresher` (dirty-row rewrites riding the
   dynamic engine) and (b) by rebuilding the whole index per batch.
   Asserted: incremental refresh is at least ``MIN_REFRESH_SPEEDUP``×
   faster.  The stream deletes edges whose endpoints have the smallest
   h-balls — updates with provably local effect, the regime incremental
   refresh is designed for (the refresher's staleness fallback covers
   batches that dirty too much of the index; see
   ``docs/architecture.md``).

Both wall-clock asserts carry the ``bench`` marker (the ``*_gate`` tests;
run them with ``-m bench``); their correctness halves run by default on
tiny graphs.  Set ``KH_CORE_BENCH_QUICK=1`` to shrink the graph and the
query volume.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core import core_decomposition
from repro.datasets import load_dataset
from repro.index import CoreIndexReader, IndexRefresher, build_index
from repro.traversal.bfs import h_bounded_neighbors

from bench_utils import write_bench_json  # noqa: E402

ARTIFACT = "BENCH_PR7.json"
H_VALUES = (1, 2, 3)

QUICK = os.environ.get("KH_CORE_BENCH_QUICK", "") not in ("", "0")

SCALE = "tiny" if QUICK else "small"
#: The refresh leg uses the road-network stand-in: heterogeneous shells
#: with a quiet periphery, so screened deletions stay local while a
#: rebuild always pays the full spectrum.
REFRESH_SCALE = "small" if QUICK else "medium"
INDEX_QUERY_REPS = 50 if QUICK else 200
RECOMPUTE_REPS = 3 if QUICK else 5
NUM_BATCHES = 3 if QUICK else 6
BATCH_SIZE = 4

#: Acceptance floors.  Real ratios are orders of magnitude larger (a point
#: lookup is one SQLite PK probe vs a full peel); the floors only guard
#: against the index accidentally degenerating into recomputation.
MIN_QUERY_SPEEDUP = 10.0
MIN_REFRESH_SPEEDUP = 2.0


def _xdist_guard():
    if os.environ.get("PYTEST_XDIST_WORKER"):
        pytest.skip("wall-clock ratios are meaningless under xdist")


def benchmark_graph():
    return load_dataset("caHe", scale=SCALE, seed=0)


def _timed(fn, reps):
    """Mean seconds per call over ``reps`` calls (first call included)."""
    started = time.perf_counter()
    for _ in range(reps):
        fn()
    return (time.perf_counter() - started) / reps


def _pick_vertices(graph, count):
    vertices = sorted(graph.vertices(), key=repr)
    step = max(1, len(vertices) // count)
    return vertices[::step][:count]


def test_index_queries_beat_recomputation(tmp_path):
    """Correctness half of the query gate: index reads equal fresh peels."""
    graph = load_dataset("caHe", scale="tiny", seed=0)
    path = str(tmp_path / "bench.khidx")
    build_index(graph, path, h_values=H_VALUES)
    layers = {h: core_decomposition(graph, h).core_index for h in H_VALUES}
    k_probe = max(1, max(layers[2].values()) - 1)
    with CoreIndexReader(path) as reader:
        for v in _pick_vertices(graph, 8):
            assert reader.core_number(v, 2) == layers[2][v]
            assert reader.spectrum(v) == [(h, layers[h][v])
                                          for h in H_VALUES]
            assert reader.membership_threshold(v, k_probe) == next(
                (h for h in H_VALUES if layers[h][v] >= k_probe), None)


@pytest.mark.bench
def test_index_queries_beat_recomputation_gate(tmp_path):
    """Per-query speedup of index reads over from-scratch peels."""
    _xdist_guard()
    graph = benchmark_graph()
    path = str(tmp_path / "bench.khidx")
    build_started = time.perf_counter()
    report = build_index(graph, path, h_values=H_VALUES)
    build_seconds = time.perf_counter() - build_started

    probes = _pick_vertices(graph, 8)
    k_probe = max(1, report.degeneracies[2] - 1)

    with CoreIndexReader(path) as reader:
        def index_points():
            for v in probes:
                reader.core_number(v, 2)

        def index_spectra():
            for v in probes:
                reader.spectrum(v)

        def index_thresholds():
            for v in probes:
                reader.membership_threshold(v, k_probe)

        index_seconds = {
            "core_number": _timed(index_points, INDEX_QUERY_REPS),
            "spectrum": _timed(index_spectra, INDEX_QUERY_REPS),
            "membership_threshold": _timed(index_thresholds,
                                           INDEX_QUERY_REPS),
        }

    # The honest no-index baseline: every query class peels from scratch.
    def recompute_points():
        cores = core_decomposition(graph, 2).core_index
        for v in probes:
            cores[v]

    def recompute_spectra():
        layers = {h: core_decomposition(graph, h).core_index
                  for h in H_VALUES}
        for v in probes:
            [(h, layers[h][v]) for h in H_VALUES]

    def recompute_thresholds():
        for v in probes:
            for h in H_VALUES:
                if core_decomposition(graph, h).core_index[v] >= k_probe:
                    break

    recompute_seconds = {
        "core_number": _timed(recompute_points, RECOMPUTE_REPS),
        "spectrum": _timed(recompute_spectra, RECOMPUTE_REPS),
        "membership_threshold": _timed(recompute_thresholds,
                                       RECOMPUTE_REPS),
    }

    speedups = {kind: recompute_seconds[kind] / index_seconds[kind]
                for kind in index_seconds}
    for kind, speedup in speedups.items():
        assert speedup >= MIN_QUERY_SPEEDUP, (
            f"{kind}: index only {speedup:.1f}x faster than recomputation "
            f"(floor {MIN_QUERY_SPEEDUP}x)")

    write_bench_json(ARTIFACT, {
        "index_queries": {
            "graph": {"dataset": "caHe", "scale": SCALE,
                      "vertices": graph.num_vertices,
                      "edges": graph.num_edges},
            "h_values": list(H_VALUES),
            "build_seconds": round(build_seconds, 6),
            "queries_per_rep": len(probes),
            "per_rep_seconds": {
                "index": {k: round(v, 9) for k, v in index_seconds.items()},
                "recompute": {k: round(v, 9)
                              for k, v in recompute_seconds.items()},
            },
            "speedup": {k: round(v, 1) for k, v in speedups.items()},
            "floor": MIN_QUERY_SPEEDUP,
        },
    })


def _local_churn_deletions(graph, count):
    """Deterministic deletion stream with provably local effect.

    Scores every edge by the summed h-ball size of its endpoints (h = the
    largest persisted threshold) and deletes the ``count`` most peripheral
    ones.  The repeel universe of a deletion is bounded by the dirty
    region around those balls, so these are exactly the updates the
    incremental path resolves in O(region) instead of O(graph).
    """
    h = max(H_VALUES)
    balls = {v: len(h_bounded_neighbors(graph, v, h))
             for v in graph.vertices()}
    scored = sorted(((balls[u] + balls[v], (u, v))
                     for u, v in graph.edges()),
                    key=lambda item: (item[0], repr(item[1])))
    return [("-", u, v) for _, (u, v) in scored[:count]]


def test_incremental_refresh_beats_rebuild(tmp_path):
    """Correctness half of the refresh gate: refreshed layers are exact."""
    graph = load_dataset("rnPA", scale="tiny", seed=0)
    updates = _local_churn_deletions(graph, 2 * BATCH_SIZE)
    path = str(tmp_path / "incremental.khidx")
    build_index(graph.copy(), path, h_values=H_VALUES)
    with IndexRefresher(path, staleness_ratio=1.0) as refresher:
        for offset in range(0, len(updates), BATCH_SIZE):
            summary = refresher.apply_batch(updates[offset:offset + BATCH_SIZE])
            assert summary.mode in ("incremental", "noop")
    for _, u, v in updates:
        graph.remove_edge(u, v)
    with CoreIndexReader(path) as reader:
        for h in H_VALUES:
            assert reader.core_map(h) == core_decomposition(graph,
                                                            h).core_index


@pytest.mark.bench
def test_incremental_refresh_beats_rebuild_gate(tmp_path):
    """Small batches: dirty-row refresh vs whole-index rebuild."""
    _xdist_guard()
    graph = load_dataset("rnPA", scale=REFRESH_SCALE, seed=0)
    updates = _local_churn_deletions(graph, NUM_BATCHES * BATCH_SIZE)
    batches = [updates[i:i + BATCH_SIZE]
               for i in range(0, len(updates), BATCH_SIZE)]

    incremental_path = str(tmp_path / "incremental.khidx")
    build_index(graph.copy(), incremental_path, h_values=H_VALUES)
    started = time.perf_counter()
    dirty_rows = 0
    with IndexRefresher(incremental_path, staleness_ratio=1.0) as refresher:
        for batch in batches:
            summary = refresher.apply_batch(batch)
            assert summary.mode in ("incremental", "noop")
            dirty_rows += summary.dirty_rows
    incremental_seconds = time.perf_counter() - started

    # Baseline: after every batch, rebuild the entire index from the
    # updated graph (what a store without incremental refresh must do).
    rebuild_path = str(tmp_path / "rebuild.khidx")
    replay = graph.copy()
    started = time.perf_counter()
    for batch in batches:
        for op, u, v in batch:
            replay.remove_edge(u, v)
        build_index(replay.copy(), rebuild_path, h_values=H_VALUES,
                    overwrite=True)
    rebuild_seconds = time.perf_counter() - started

    # Both paths must land on the same final state.
    with CoreIndexReader(incremental_path) as incremental, \
            CoreIndexReader(rebuild_path) as rebuilt:
        for h in H_VALUES:
            assert incremental.core_map(h) == rebuilt.core_map(h)

    speedup = rebuild_seconds / incremental_seconds
    assert speedup >= MIN_REFRESH_SPEEDUP, (
        f"incremental refresh only {speedup:.1f}x faster than per-batch "
        f"rebuild (floor {MIN_REFRESH_SPEEDUP}x)")

    write_bench_json(ARTIFACT, {
        "refresh_vs_rebuild": {
            "graph": {"dataset": "rnPA", "scale": REFRESH_SCALE,
                      "vertices": graph.num_vertices,
                      "edges": graph.num_edges},
            "h_values": list(H_VALUES),
            "batches": len(batches),
            "batch_size": BATCH_SIZE,
            "workload": "local-churn deletions (smallest endpoint h-balls)",
            "dirty_rows": dirty_rows,
            "incremental_seconds": round(incremental_seconds, 6),
            "rebuild_seconds": round(rebuild_seconds, 6),
            "speedup": round(speedup, 1),
            "floor": MIN_REFRESH_SPEEDUP,
        },
    })
