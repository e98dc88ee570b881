"""Tests for the CoreDecomposition result object and the core_decomposition facade."""

import pytest

from repro.core import (
    ALGORITHMS,
    CoreDecomposition,
    build_partitions,
    core_decomposition,
    core_decomposition_with_report,
)
from repro.core.decomposition import resolve_algorithm
from repro.errors import InvalidDistanceThresholdError, ParameterError
from repro.graph import Graph
from repro.graph.generators import (
    barabasi_albert_graph,
    complete_graph,
    cycle_graph,
    erdos_renyi_graph,
    star_graph,
)
from repro.instrumentation import Counters


@pytest.fixture
def decomposition(paper_style_graph):
    return core_decomposition(paper_style_graph, 2)


class TestCoreDecompositionResult:
    def test_validation_requires_all_vertices(self):
        g = cycle_graph(4)
        with pytest.raises(ValueError):
            CoreDecomposition(g, 2, {0: 1})

    def test_degeneracy_and_distinct_cores(self, decomposition):
        assert decomposition.degeneracy == max(decomposition.core_index.values())
        assert decomposition.max_core_index == decomposition.degeneracy
        assert decomposition.num_distinct_cores == len(set(decomposition.core_index.values()))

    def test_core_nesting(self, decomposition):
        for k in range(decomposition.degeneracy):
            assert decomposition.core(k + 1) <= decomposition.core(k)

    def test_core_zero_is_everything(self, decomposition, paper_style_graph):
        assert decomposition.core(0) == set(paper_style_graph.vertices())

    def test_core_subgraph_and_view(self, decomposition):
        k = decomposition.degeneracy
        subgraph = decomposition.core_subgraph(k)
        view = decomposition.core_view(k)
        assert set(subgraph.vertices()) == decomposition.core(k)
        assert view.vertex_set == decomposition.core(k)

    def test_innermost_core_nonempty(self, decomposition):
        innermost = decomposition.innermost_core()
        assert innermost
        assert innermost == decomposition.core(decomposition.degeneracy)

    def test_shells_partition_vertices(self, decomposition, paper_style_graph):
        shells = decomposition.shells()
        union = set()
        for members in shells.values():
            assert not union & members
            union |= members
        assert union == set(paper_style_graph.vertices())

    def test_core_sizes_monotone(self, decomposition):
        sizes = decomposition.core_sizes()
        values = [sizes[k] for k in sorted(sizes)]
        assert values == sorted(values, reverse=True)
        assert sizes[0] == len(decomposition.core_index)

    def test_vertices_with_core(self, decomposition):
        k = decomposition.degeneracy
        assert set(decomposition.vertices_with_core(k)) == decomposition.core(k)

    def test_normalized_core_index(self, decomposition):
        normalized = decomposition.normalized_core_index()
        assert all(0.0 <= value <= 1.0 for value in normalized.values())
        assert max(normalized.values()) == pytest.approx(1.0)

    def test_normalized_on_edgeless_graph(self):
        g = Graph(vertices=[1, 2])
        result = core_decomposition(g, 2)
        assert result.normalized_core_index() == {1: 0.0, 2: 0.0}

    def test_getitem_and_eq_and_repr(self, decomposition, paper_style_graph):
        vertex = next(iter(paper_style_graph.vertices()))
        assert decomposition[vertex] == decomposition.core_index[vertex]
        same = core_decomposition(paper_style_graph, 2, algorithm="h-BZ")
        assert decomposition == same
        assert decomposition != 17
        assert "h=2" in repr(decomposition)


class TestFacade:
    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ParameterError):
            core_decomposition(cycle_graph(4), 2, algorithm="magic")

    def test_invalid_h_rejected(self):
        with pytest.raises(InvalidDistanceThresholdError):
            core_decomposition(cycle_graph(4), 0)

    def test_classic_requires_h1(self):
        with pytest.raises(ParameterError):
            core_decomposition(cycle_graph(4), 2, algorithm="classic")

    def test_auto_dispatch_h1(self):
        result = core_decomposition(cycle_graph(6), 1)
        assert result.algorithm == "classic-BZ"

    def test_auto_dispatch_small_graph(self):
        result = core_decomposition(cycle_graph(6), 2)
        assert result.algorithm == "h-LB"

    def test_auto_dispatch_large_graph_is_h_lb(self):
        # No size switch: auto stays on h-LB above the old 2000-vertex cut.
        graph = cycle_graph(2100)
        result = core_decomposition(graph, 2)
        assert result.algorithm == "h-LB"
        assert result.core_index == core_decomposition(
            graph, 2, algorithm="h-LB+UB").core_index

    def test_resolve_algorithm_rule(self):
        assert resolve_algorithm("auto", 1) == "classic"
        for h in (2, 3, 7):
            assert resolve_algorithm("auto", h) == "h-LB"
        assert resolve_algorithm("h-LB+UB", 2) == "h-LB+UB"
        with pytest.raises(ParameterError):
            resolve_algorithm("fastest", 2)

    @pytest.mark.parametrize("algorithm", ["auto", "classic"])
    def test_h1_report_builds_no_engine(self, algorithm, monkeypatch):
        from repro.graph.csr import CSRGraph

        graph = barabasi_albert_graph(3000, 3, seed=1)
        builds = []
        original = CSRGraph.from_graph.__func__
        monkeypatch.setattr(CSRGraph, "from_graph", classmethod(
            lambda cls, *a, **k: builds.append(1) or original(cls, *a, **k)))
        report = core_decomposition_with_report(graph, 1,
                                                algorithm=algorithm)
        assert report.result.algorithm == "classic-BZ"
        assert report.params["backend"] == "dict"
        assert report.params["executor"] == "serial"
        assert builds == []

    def test_all_algorithms_listed(self):
        assert set(ALGORITHMS) == {"auto", "classic", "naive", "h-BZ", "h-LB", "h-LB+UB"}

    @pytest.mark.parametrize("algorithm", ["naive", "h-BZ", "h-LB", "h-LB+UB"])
    def test_explicit_algorithms_agree(self, algorithm, seeded_random_graph):
        reference = core_decomposition(seeded_random_graph, 2, algorithm="naive")
        result = core_decomposition(seeded_random_graph, 2, algorithm=algorithm)
        assert result.core_index == reference.core_index

    def test_counters_forwarded(self):
        counters = Counters()
        core_decomposition(erdos_renyi_graph(15, 0.2, seed=1), 2,
                           algorithm="h-BZ", counters=counters)
        assert counters.vertices_visited > 0

    def test_report_wrapper(self):
        report = core_decomposition_with_report(complete_graph(6), 2,
                                                algorithm="h-LB",
                                                dataset_name="K6")
        assert report.dataset == "K6"
        assert report.h == 2
        assert report.seconds >= 0.0
        assert report.result.degeneracy == 5
        assert report.params["partition_size"] == 1

    def test_star_example_quickstart(self):
        # The docstring example: every vertex of a star is in the (n,2)-core.
        result = core_decomposition(star_graph(4), 2)
        assert result.degeneracy == 4


class TestBuildPartitions:
    def test_paper_example_s2(self):
        ubs = {f"v{i}": value for i, value in enumerate([5, 10, 15, 20, 25, 30])}
        partitions = build_partitions(ubs, min_lower_bound=3, partition_size=2)
        assert partitions == [(21, 30), (11, 20), (3, 10)]

    def test_paper_example_s1(self):
        ubs = {f"v{i}": value for i, value in enumerate([5, 10, 15, 20, 25, 30])}
        partitions = build_partitions(ubs, min_lower_bound=3, partition_size=1)
        assert partitions == [(26, 30), (21, 25), (16, 20), (11, 15), (6, 10), (3, 5)]

    def test_covers_every_core_value(self):
        ubs = {"a": 4, "b": 7, "c": 2}
        partitions = build_partitions(ubs, min_lower_bound=1, partition_size=1)
        covered = set()
        for kmin, kmax in partitions:
            covered.update(range(kmin, kmax + 1))
        assert covered >= set(range(1, 8))

    def test_partitions_are_top_down_and_disjoint(self):
        ubs = {i: i for i in range(1, 20)}
        partitions = build_partitions(ubs, min_lower_bound=1, partition_size=3)
        flattened = []
        for kmin, kmax in partitions:
            assert kmin <= kmax
            flattened.append((kmin, kmax))
        # strictly decreasing kmax and no overlaps
        for (lo1, hi1), (lo2, hi2) in zip(flattened, flattened[1:]):
            assert hi2 < lo1

    def test_invalid_partition_size(self):
        with pytest.raises(ParameterError):
            build_partitions({"a": 3}, min_lower_bound=1, partition_size=0)
