"""Tests for the scheduling layer of the parallel h-degree computation (§4.6)."""

import pytest

from repro.core.parallel import (
    EXECUTORS,
    _chunks,
    chunk_plan,
    compute_h_degrees,
    map_batches,
)
from repro.errors import ParameterError
from repro.graph.generators import cycle_graph, erdos_renyi_graph
from repro.instrumentation import Counters
from repro.traversal.hneighborhood import all_h_degrees


class TestChunks:
    def test_single_chunk(self):
        assert _chunks([1, 2, 3], 1) == [[1, 2, 3]]

    def test_split_roughly_even(self):
        chunks = _chunks(list(range(10)), 3)
        assert sum(len(c) for c in chunks) == 10
        assert max(len(c) for c in chunks) - min(len(c) for c in chunks) <= 1

    def test_more_chunks_than_items(self):
        chunks = _chunks([1, 2], 8)
        assert sum(len(c) for c in chunks) == 2

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 9, 10, 11, 16, 17, 23])
    @pytest.mark.parametrize("num_chunks", [1, 2, 3, 4, 5, 8])
    def test_exact_chunk_count_on_boundary_sizes(self, n, num_chunks):
        """Never more than ``num_chunks`` chunks — each extra chunk used to
        be a wasted process-pool round-trip on non-divisible sizes."""
        items = list(range(n))
        chunks = _chunks(items, num_chunks)
        if num_chunks <= 1 or n <= 1:
            assert chunks == [items]
        else:
            assert len(chunks) == min(num_chunks, n)
            assert all(chunk for chunk in chunks)
            sizes = [len(chunk) for chunk in chunks]
            assert max(sizes) - min(sizes) <= 1
        assert [x for chunk in chunks for x in chunk] == items

    def test_empty_items_single_empty_chunk(self):
        # Historical contract: map_batches hands one (empty) batch through.
        assert _chunks([], 4) == [[]]


class TestChunkPlan:
    def test_unweighted_matches_exact_chunks(self):
        assert chunk_plan(list(range(10)), 3) == _chunks(list(range(10)), 3)

    def test_empty(self):
        assert chunk_plan([], 4) == []

    def test_weighted_balances_skew(self):
        # One hub (weight 100) plus many light vertices: LPT must isolate
        # the hub instead of stacking light items behind it.
        items = list(range(9))
        weights = [100] + [1] * 8
        chunks = chunk_plan(items, 4, weights=weights)
        assert len(chunks) <= 4
        loads = [sum(weights[items.index(x)] for x in chunk)
                 for chunk in chunks]
        assert max(loads) == 100  # the hub rides alone
        assert sorted(x for chunk in chunks for x in chunk) == items

    def test_weighted_covers_all_items(self):
        items = [f"v{i}" for i in range(13)]
        weights = [(i * 7) % 5 + 1 for i in range(13)]
        chunks = chunk_plan(items, 4, weights=weights)
        assert sorted(x for chunk in chunks for x in chunk) == sorted(items)

    def test_weight_length_mismatch(self):
        with pytest.raises(ParameterError):
            chunk_plan([1, 2, 3], 2, weights=[1])


def _square_worker(batch, local):
    local.bump("batches")
    return {x: x * x for x in batch}


class TestMapBatches:
    # One worker runs the targets inline as a single batch; more fan the
    # batches out over the thread pool.
    @pytest.mark.parametrize("num_workers, batches", [(1, 1), (3, 3)],
                             ids=["serial", "thread"])
    def test_executors_agree(self, num_workers, batches):
        targets = list(range(20))
        expected = {x: x * x for x in targets}
        counters = Counters()
        result = map_batches(targets, num_workers, _square_worker, counters)
        assert result == expected
        assert counters.extra["batches"] == batches

    def test_weighted_dispatch(self):
        targets = list(range(12))
        weights = [10] + [1] * 11
        result = map_batches(targets, 3, _square_worker, weights=weights)
        assert result == {x: x * x for x in targets}


class TestComputeHDegrees:
    @pytest.mark.parametrize("num_workers", [1, 2, 4])
    def test_matches_sequential_reference(self, num_workers):
        graph = erdos_renyi_graph(30, 0.15, seed=1)
        expected = all_h_degrees(graph, 2)
        assert compute_h_degrees(graph, 2, num_workers=num_workers) == expected

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_executors_match_reference(self, executor):
        graph = erdos_renyi_graph(30, 0.15, seed=4)
        expected = all_h_degrees(graph, 2)
        assert compute_h_degrees(graph, 2, num_workers=2,
                                 executor=executor) == expected

    def test_alive_restriction(self):
        graph = cycle_graph(10)
        alive = {0, 1, 2, 3, 4}
        expected = all_h_degrees(graph, 2, alive=alive)
        assert compute_h_degrees(graph, 2, alive=alive, num_workers=3) == expected

    def test_alive_restriction_process(self):
        graph = cycle_graph(10)
        alive = {0, 1, 2, 3, 4}
        expected = all_h_degrees(graph, 2, alive=alive)
        assert compute_h_degrees(graph, 2, alive=alive, num_workers=2,
                                 executor="process") == expected

    def test_explicit_vertex_subset(self):
        graph = cycle_graph(8)
        result = compute_h_degrees(graph, 2, vertices=[0, 4], num_workers=2)
        assert set(result) == {0, 4}

    def test_counters_merged_across_threads(self):
        graph = erdos_renyi_graph(25, 0.2, seed=2)
        sequential_counters = Counters()
        compute_h_degrees(graph, 2, num_workers=1, counters=sequential_counters)
        threaded_counters = Counters()
        compute_h_degrees(graph, 2, num_workers=4, counters=threaded_counters)
        assert threaded_counters.vertices_visited == sequential_counters.vertices_visited
        assert threaded_counters.hdegree_computations == sequential_counters.hdegree_computations

    def test_counters_merged_across_processes(self):
        graph = erdos_renyi_graph(25, 0.2, seed=2)
        sequential_counters = Counters()
        compute_h_degrees(graph, 2, num_workers=1, counters=sequential_counters)
        process_counters = Counters()
        compute_h_degrees(graph, 2, num_workers=2, counters=process_counters,
                          executor="process")
        assert process_counters.vertices_visited == sequential_counters.vertices_visited
        assert process_counters.hdegree_computations == sequential_counters.hdegree_computations

    def test_process_executor_non_integer_labels(self):
        """The process path snapshots to CSR even for string vertices."""
        graph = erdos_renyi_graph(18, 0.2, seed=5)
        relabeled_edges = [(f"a{u}", f"a{v}") for u, v in graph.edges()]
        from repro.graph import Graph
        labeled = Graph(relabeled_edges)
        expected = all_h_degrees(labeled, 2)
        assert compute_h_degrees(labeled, 2, num_workers=2,
                                 executor="process") == expected

    def test_unknown_executor(self):
        graph = cycle_graph(5)
        with pytest.raises(ParameterError):
            compute_h_degrees(graph, 2, executor="gpu")

    def test_empty_vertex_list(self):
        graph = cycle_graph(5)
        assert compute_h_degrees(graph, 2, vertices=[], num_workers=2) == {}
