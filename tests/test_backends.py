"""Backend equivalence: the CSR engine must reproduce the dict engine exactly.

The dict-of-sets :class:`Graph` path is the reference implementation; the CSR
backend (flat arrays + generation-trick BFS + byte-mask alive sets) must
return *identical* core numbers on every graph, for every algorithm and every
h — that equivalence is the whole contract of :mod:`repro.core.backends`.
"""

from __future__ import annotations

import pytest

from repro.core import (
    AliveMask,
    CSREngine,
    DictEngine,
    compute_h_degrees,
    core_decomposition,
    h_bz,
    h_lb,
    h_lb_ub,
    naive_core_decomposition,
    resolve_engine,
)
from repro.errors import ParameterError, VertexNotFoundError
from repro.graph import CSRGraph, Graph, csr_suitable
from repro.graph.generators import (
    barabasi_albert_graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    erdos_renyi_graph,
    grid_graph,
    path_graph,
    planted_partition_graph,
    relaxed_caveman_graph,
    star_graph,
    watts_strogatz_graph,
)
from repro.instrumentation import Counters
from repro.traversal import csr_h_bounded_bfs, h_bounded_bfs

from helpers import random_vertex


def generator_battery():
    """Deterministic graphs from every synthetic generator family."""
    return {
        "complete_7": complete_graph(7),
        "cycle_12": cycle_graph(12),
        "path_9": path_graph(9),
        "star_8": star_graph(8),
        "grid_5x4": grid_graph(5, 4),
        "er_24": erdos_renyi_graph(24, 0.15, seed=1),
        "ba_25": barabasi_albert_graph(25, 2, seed=2),
        "ws_20": watts_strogatz_graph(20, 4, 0.2, seed=3),
        "caveman": relaxed_caveman_graph(4, 5, 0.1, seed=4),
        "partition": planted_partition_graph(3, 6, 0.6, 0.05, seed=5),
        "isolated_only": empty_graph(4),
        "empty": empty_graph(0),
    }


class TestCSRGraph:
    def test_structure_matches_graph(self):
        g = erdos_renyi_graph(30, 0.2, seed=7)
        csr = CSRGraph.from_graph(g)
        assert csr.num_vertices == g.num_vertices
        assert csr.num_edges == g.num_edges
        assert csr.indptr[0] == 0
        assert csr.indptr[-1] == len(csr.adjacency) == 2 * g.num_edges
        assert all(a <= b for a, b in zip(csr.indptr, csr.indptr[1:]))
        for v in g.vertices():
            assert csr.degree(csr.index(v)) == g.degree(v)
            assert csr.neighbors_of_label(v) == g.neighbors(v)

    def test_neighbor_indices_sorted_per_vertex(self):
        csr = CSRGraph.from_graph(relaxed_caveman_graph(3, 5, 0.2, seed=0))
        for i in range(csr.num_vertices):
            neighbors = csr.neighbors(i)
            assert neighbors == sorted(neighbors)

    def test_label_roundtrip_arbitrary_hashables(self):
        g = Graph([("a", "b"), ("b", (1, 2)), ((1, 2), "a")])
        g.add_vertex("lonely")
        csr = CSRGraph.from_graph(g)
        assert {csr.label(csr.index(v)) for v in g.vertices()} == set(g.vertices())
        assert csr.neighbors_of_label("b") == {"a", (1, 2)}
        assert csr.neighbors_of_label("lonely") == set()

    def test_edges_iterates_each_edge_once(self):
        g = cycle_graph(6)
        csr = CSRGraph.from_graph(g)
        edges = list(csr.edges())
        assert len(edges) == g.num_edges
        assert all(v < u for v, u in edges)

    def test_unknown_label_raises(self):
        csr = CSRGraph.from_graph(path_graph(3))
        with pytest.raises(VertexNotFoundError):
            csr.index(99)

    def test_csr_suitable_only_for_int_vertices(self):
        assert csr_suitable(path_graph(4))
        assert csr_suitable(empty_graph(0))
        assert not csr_suitable(Graph([("a", "b")]))
        assert not csr_suitable(Graph([(True, 2)]))


class TestArrayBFSEquivalence:
    @pytest.mark.parametrize("h", [1, 2, 3, None])
    def test_matches_dict_bfs_on_full_graph(self, h):
        g = erdos_renyi_graph(28, 0.15, seed=11)
        csr = CSRGraph.from_graph(g)
        for v in g.vertices():
            assert csr_h_bounded_bfs(csr, v, h) == h_bounded_bfs(g, v, h)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_dict_bfs_on_alive_subsets(self, seed):
        import random
        g = erdos_renyi_graph(26, 0.18, seed=seed)
        csr = CSRGraph.from_graph(g)
        rng = random.Random(seed)
        vertices = sorted(g.vertices())
        for _ in range(20):
            source = rng.choice(vertices)
            alive = set(rng.sample(vertices, 15)) | {source}
            for h in (1, 2, 3):
                assert (csr_h_bounded_bfs(csr, source, h, alive=alive)
                        == h_bounded_bfs(g, source, h, alive=alive))

    def test_source_not_alive_raises(self):
        g = path_graph(5)
        csr = CSRGraph.from_graph(g)
        with pytest.raises(VertexNotFoundError):
            csr_h_bounded_bfs(csr, 0, 2, alive={1, 2, 3})

    def test_unknown_alive_labels_ignored_like_dict_backend(self):
        g = Graph([(0, 1), (1, 2)])
        csr = CSRGraph.from_graph(g)
        alive = {0, 1, 99}
        assert (csr_h_bounded_bfs(csr, 0, 2, alive=alive)
                == h_bounded_bfs(g, 0, 2, alive=alive) == {0: 0, 1: 1})

    def test_counters_match_dict_backend(self):
        g = relaxed_caveman_graph(3, 5, 0.1, seed=9)
        csr = CSRGraph.from_graph(g)
        source = random_vertex(g)
        dict_counters, csr_counters = Counters(), Counters()
        h_bounded_bfs(g, source, 2, counters=dict_counters)
        csr_h_bounded_bfs(csr, source, 2, counters=csr_counters)
        assert csr_counters.bfs_calls == dict_counters.bfs_calls == 1
        assert csr_counters.vertices_visited == dict_counters.vertices_visited


class TestAliveMask:
    def test_set_protocol(self):
        alive = AliveMask.of(6, [0, 2, 4])
        assert len(alive) == 3 and bool(alive)
        assert 2 in alive and 1 not in alive
        assert sorted(alive) == [0, 2, 4]
        alive.discard(2)
        alive.discard(2)  # idempotent
        assert len(alive) == 2 and sorted(alive) == [0, 4]
        for i in (0, 4):
            alive.discard(i)
        assert not alive

    def test_discard_syncs_installed_sentinels(self):
        """A mask installed in a scratch must reflect later discards."""
        g = complete_graph(5)
        engine = CSREngine(g)
        alive = engine.full_alive()
        assert engine.h_degree(0, 1, alive) == 4
        alive.discard(3)
        assert engine.h_degree(0, 1, alive) == 3
        # Switching to the unrestricted context and back re-installs.
        assert engine.h_degree(0, 1, None) == 4
        assert engine.h_degree(0, 1, alive) == 3


class TestDeadSentinel:
    """The DEAD visit mark is an integer, and its protocol survives edge cases.

    PR 5 replaced the historical ``float("inf")`` sentinel with ``2**63 - 1``
    so the ``seen`` scratch is homogeneous-int in both the list scratch
    (:class:`ArrayBFS`) and the int64 ndarray scratch of the NumPy engine —
    which share :class:`AliveMask` objects and their sentinel upkeep.
    """

    def test_sentinel_is_int64_max(self):
        from repro.traversal.array_bfs import DEAD

        assert isinstance(DEAD, int)
        assert DEAD == 2**63 - 1

    def test_seen_scratch_stays_homogeneous_int(self):
        from repro.traversal.array_bfs import ArrayBFS

        g = path_graph(6)
        scratch = ArrayBFS(CSRGraph.from_graph(g))
        alive = AliveMask.of(6, [0, 1, 2, 3])
        scratch.run(0, 2, alive)
        alive.discard(3)
        assert all(isinstance(mark, int) for mark in scratch._seen)

    def test_generation_rollover_resets_scratch(self):
        from repro.traversal.array_bfs import DEAD, ArrayBFS

        g = cycle_graph(8)
        scratch = ArrayBFS(CSRGraph.from_graph(g))
        expected = scratch.run(0, 2)
        scratch._generation = DEAD - 1
        # Without the guard this stamp would equal the DEAD sentinel and
        # every vertex would look dead; with it the scratch reinstalls.
        assert scratch.run(0, 2) == expected
        assert scratch._generation == 1
        assert scratch.run(1, 2) == expected

    def test_generation_rollover_keeps_alive_mask_installed(self):
        from repro.traversal.array_bfs import DEAD, ArrayBFS

        g = complete_graph(6)
        scratch = ArrayBFS(CSRGraph.from_graph(g))
        alive = AliveMask.of(6, range(5))
        assert scratch.run(0, 1, alive) == 4
        scratch._generation = DEAD - 1
        assert scratch.run(0, 1, alive) == 4
        # Discards performed after the rollover reinstall still sync.
        alive.discard(4)
        assert scratch.run(0, 1, alive) == 3


class TestEngineResolution:
    def test_auto_picks_csr_for_integer_graphs(self):
        assert isinstance(resolve_engine(path_graph(4), "auto"), CSREngine)
        assert isinstance(resolve_engine(Graph([("a", "b")]), "auto"), DictEngine)

    def test_explicit_names(self):
        g = path_graph(4)
        assert isinstance(resolve_engine(g, "dict"), DictEngine)
        assert isinstance(resolve_engine(g, "csr"), CSREngine)

    def test_engine_instances_pass_through(self):
        g = path_graph(4)
        engine = CSREngine(g)
        assert resolve_engine(g, engine) is engine
        with pytest.raises(ParameterError):
            resolve_engine(path_graph(3), engine)

    def test_stale_csr_engine_rejected_after_mutation(self):
        g = path_graph(4)
        engine = CSREngine(g)
        g.add_edge(0, 3)
        with pytest.raises(ParameterError):
            resolve_engine(g, engine)
        with pytest.raises(ParameterError):
            h_bz(g, 2, backend=engine)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ParameterError):
            resolve_engine(path_graph(3), "nope")
        with pytest.raises(ParameterError):
            core_decomposition(path_graph(3), 2, backend="nope")


class TestBackendEquivalence:
    """The acceptance property: identical core numbers on every test graph."""

    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_facade_backends_agree_across_generators(self, h):
        for name, graph in generator_battery().items():
            expected = core_decomposition(graph, h, backend="dict").core_index
            actual = core_decomposition(graph, h, backend="csr").core_index
            assert actual == expected, f"{name}, h={h}"

    @pytest.mark.parametrize("algorithm", ["h-BZ", "h-LB", "h-LB+UB"])
    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_each_algorithm_agrees(self, algorithm, h):
        for name, graph in generator_battery().items():
            expected = core_decomposition(graph, h, algorithm=algorithm,
                                          backend="dict").core_index
            actual = core_decomposition(graph, h, algorithm=algorithm,
                                        backend="csr").core_index
            assert actual == expected, f"{name}, {algorithm}, h={h}"

    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_csr_agrees_with_naive_oracle(self, h):
        graph = relaxed_caveman_graph(3, 4, 0.15, seed=6)
        expected = naive_core_decomposition(graph, h).core_index
        for algorithm in ("h-BZ", "h-LB", "h-LB+UB"):
            result = core_decomposition(graph, h, algorithm=algorithm,
                                        backend="csr")
            assert result.core_index == expected

    def test_auto_backend_agrees_on_fixture(self, paper_style_graph):
        for h in (1, 2, 3):
            auto = core_decomposition(paper_style_graph, h, backend="auto")
            ref = core_decomposition(paper_style_graph, h, backend="dict")
            assert auto.core_index == ref.core_index

    def test_string_labeled_graph_via_explicit_csr(self):
        graph = Graph([("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"),
                       ("d", "e")])
        for h in (1, 2, 3):
            expected = core_decomposition(graph, h, backend="dict").core_index
            assert core_decomposition(graph, h,
                                      backend="csr").core_index == expected

    def test_hlbub_partition_sizes_agree(self):
        graph = erdos_renyi_graph(30, 0.15, seed=8)
        expected = h_lb_ub(graph, 2).core_index
        for partition_size in (1, 2, 4):
            result = h_lb_ub(graph, 2, partition_size=partition_size,
                             backend="csr")
            assert result.core_index == expected

    def test_removal_order_is_complete_on_csr(self):
        graph = erdos_renyi_graph(20, 0.2, seed=3)
        for algorithm in (h_bz, h_lb):
            order = algorithm(graph, 2, backend="csr").removal_order
            assert sorted(order) == sorted(graph.vertices())

    def test_counters_populated_on_csr(self):
        counters = Counters()
        h_bz(erdos_renyi_graph(20, 0.2, seed=1), 2, counters=counters,
             backend="csr")
        assert counters.bfs_calls > 0
        assert counters.vertices_visited > 0
        assert counters.hdegree_computations > 0

    def test_engine_reuse_across_decompositions(self):
        graph = erdos_renyi_graph(25, 0.15, seed=4)
        engine = resolve_engine(graph, "csr")
        for h in (2, 3):
            expected = core_decomposition(graph, h, backend="dict").core_index
            assert core_decomposition(graph, h,
                                      backend=engine).core_index == expected


class TestBulkHDegrees:
    def test_compute_h_degrees_backend_parity(self):
        graph = erdos_renyi_graph(30, 0.15, seed=2)
        reference = compute_h_degrees(graph, 2)
        assert compute_h_degrees(graph, 2, backend="csr") == reference
        assert compute_h_degrees(graph, 2, backend="auto") == reference

    def test_threaded_csr_bulk_matches_sequential(self):
        graph = erdos_renyi_graph(40, 0.12, seed=5)
        sequential = Counters()
        threaded = Counters()
        a = compute_h_degrees(graph, 2, backend="csr", counters=sequential)
        b = compute_h_degrees(graph, 2, backend="csr", num_workers=4,
                              counters=threaded)
        assert a == b
        assert threaded.vertices_visited == sequential.vertices_visited
        assert threaded.hdegree_computations == sequential.hdegree_computations

    def test_alive_and_vertices_restrictions(self):
        graph = erdos_renyi_graph(30, 0.15, seed=6)
        vertices = sorted(graph.vertices())
        alive = set(vertices[:20])
        targets = vertices[5:15]
        reference = compute_h_degrees(graph, 2, vertices=targets, alive=alive)
        assert compute_h_degrees(graph, 2, vertices=targets, alive=alive,
                                 backend="csr") == reference


class TestCSRAutoThreshold:
    """The csr_suitable gate: an int-label probe with no size threshold."""

    def test_keyword_threshold(self):
        # The size keyword is gone: every int-labelled graph is suitable.
        assert csr_suitable(path_graph(1))
        assert csr_suitable(path_graph(4))
        with pytest.raises(TypeError):
            csr_suitable(path_graph(4), min_vertices=5)

    def test_env_var_threshold(self, monkeypatch):
        # The deleted KH_CORE_CSR_THRESHOLD no longer moves the gate.
        g = path_graph(4)
        monkeypatch.setenv("KH_CORE_CSR_THRESHOLD", "100")
        assert csr_suitable(g)
        assert isinstance(resolve_engine(g, "auto"), CSREngine)

    def test_explicit_csr_request_bypasses_threshold(self):
        g = Graph([("a", "b"), ("b", "c")])
        assert not csr_suitable(g)
        assert isinstance(resolve_engine(g, "auto"), DictEngine)
        assert isinstance(resolve_engine(g, "csr"), CSREngine)

    def test_negative_keyword_rejected(self):
        from repro.runtime import ExecutionContext

        graph = path_graph(4)
        with pytest.raises(TypeError):
            resolve_engine(graph, "auto", csr_threshold=0)
        with pytest.raises(TypeError):
            ExecutionContext(graph, csr_threshold=0)

    def test_resolved_backend_name(self, monkeypatch):
        from repro.core import backends
        from repro.core.backends import resolved_backend_name
        g = path_graph(4)
        assert resolved_backend_name(g, "auto") == "csr"
        assert resolved_backend_name(g, "dict") == "dict"
        assert resolved_backend_name(g, CSREngine(g)) == "csr"
        strings = Graph([("a", "b")])
        assert resolved_backend_name(strings, "auto") == "dict"
        monkeypatch.setattr(backends, "numpy_available", lambda: True)
        monkeypatch.setattr(backends, "NUMPY_AUTO_MIN_VERTICES", 4)
        assert resolved_backend_name(g, "auto") == "numpy"
        assert resolved_backend_name(strings, "auto") == "dict"
        with pytest.raises(ParameterError):
            resolved_backend_name(g, "gpu")


class TestNumpyAutoThreshold:
    """NUMPY_AUTO_MIN_VERTICES: the auto ladder's numpy step-up gate."""

    def test_default_and_keyword(self, monkeypatch):
        from repro.core import backends
        from repro.core.backends import resolved_backend_name

        assert backends.NUMPY_AUTO_MIN_VERTICES == 512
        assert backends.NATIVE_AUTO_MIN_VERTICES == 2048
        monkeypatch.setattr(backends, "numpy_available", lambda: True)
        monkeypatch.setattr(backends, "native_available", lambda: False)
        assert resolved_backend_name(path_graph(511), "auto") == "csr"
        assert resolved_backend_name(path_graph(512), "auto") == "numpy"

    def test_env_var_overrides_default(self, monkeypatch):
        # The deleted KH_CORE_NUMPY_THRESHOLD is ignored; only the module
        # constant moves the gate.
        from repro.core import backends
        from repro.core.backends import resolved_backend_name

        monkeypatch.setattr(backends, "numpy_available", lambda: True)
        monkeypatch.setattr(backends, "native_available", lambda: False)
        monkeypatch.setenv("KH_CORE_NUMPY_THRESHOLD", "9000")
        assert resolved_backend_name(path_graph(600), "auto") == "numpy"
        monkeypatch.setattr(backends, "NUMPY_AUTO_MIN_VERTICES", 9000)
        assert resolved_backend_name(path_graph(600), "auto") == "csr"

    def test_invalid_env_var_does_not_break_auto_resolution(self,
                                                            monkeypatch):
        """A leftover value of a deleted knob is ignored, without a warning."""
        import warnings

        from repro.core import backends

        # Force the ladder to consult the numpy gate even when NumPy is not
        # installed (a 4-vertex graph stays on CSR either way, so no
        # NumpyEngine is ever built).
        monkeypatch.setattr(backends, "numpy_available", lambda: True)
        monkeypatch.setenv("KH_CORE_NUMPY_THRESHOLD", "not-a-number")
        g = path_graph(4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            engine = resolve_engine(g, "auto")
        assert isinstance(engine, CSREngine)


class TestCSRDeltaRebuild:
    """CSRGraph.rebuilt / CSREngine.refresh: stale snapshots catch up."""

    def _assert_same_topology(self, csr, graph):
        fresh = CSRGraph.from_graph(graph)
        for v in graph.vertices():
            assert csr.neighbors_of_label(v) == fresh.neighbors_of_label(v)
        assert csr.num_vertices == graph.num_vertices
        assert csr.num_edges == graph.num_edges

    def test_rebuilt_after_edge_changes(self):
        g = erdos_renyi_graph(20, 0.2, seed=2)
        csr = CSRGraph.from_graph(g)
        g.add_edge(0, 19)
        g.remove_edge(*next(iter(g.edges())))
        touched = {0, 19} | set(range(20))  # superset of changed rows is fine
        self._assert_same_topology(csr.rebuilt(g, touched), g)

    def test_rebuilt_preserves_existing_indices(self):
        g = path_graph(6)
        csr = CSRGraph.from_graph(g)
        g.add_edge(0, 5)
        rebuilt = csr.rebuilt(g, {0, 5})
        for v in range(6):
            assert rebuilt.index(v) == csr.index(v)

    def test_rebuilt_appends_new_vertices(self):
        g = path_graph(4)
        csr = CSRGraph.from_graph(g)
        g.add_edge(3, 99)
        rebuilt = csr.rebuilt(g, {3, 99})
        assert rebuilt.index(99) == 4
        self._assert_same_topology(rebuilt, g)

    def test_rebuilt_matches_from_graph_under_random_mutations(self):
        # Span-copy stress: adjacent touched rows, touched rows at both
        # ends, appended vertices and untouched runs must all reassemble
        # into exactly the arrays a fresh build produces.
        import random
        rng = random.Random(7)
        g = erdos_renyi_graph(30, 0.15, seed=6)
        for round_number in range(25):
            csr = CSRGraph.from_graph(g)
            touched = set()
            for _ in range(rng.randint(1, 4)):
                if rng.random() < 0.3:
                    new = 100 + round_number * 10 + rng.randint(0, 9)
                    anchor = rng.choice(sorted(g.vertices(), key=repr))
                    if new != anchor and not g.has_edge(new, anchor):
                        g.add_edge(new, anchor)
                        touched.update((new, anchor))
                elif rng.random() < 0.5 and g.num_edges:
                    u, v = rng.choice(sorted(g.edges(), key=repr))
                    g.remove_edge(u, v)
                    touched.update((u, v))
                else:
                    u, v = rng.sample(sorted(g.vertices(), key=repr), 2)
                    if not g.has_edge(u, v):
                        g.add_edge(u, v)
                        touched.update((u, v))
            rebuilt = csr.rebuilt(g, touched)
            fresh = CSRGraph.from_graph(g)
            assert rebuilt.labels[:csr.num_vertices] == csr.labels
            assert rebuilt.num_vertices == fresh.num_vertices
            assert rebuilt.num_edges == fresh.num_edges
            for v in g.vertices():
                assert rebuilt.neighbors_of_label(v) == \
                    fresh.neighbors_of_label(v)

    def test_rebuilt_falls_back_on_vertex_removal(self):
        g = path_graph(5)
        csr = CSRGraph.from_graph(g)
        g.remove_vertex(2)
        rebuilt = csr.rebuilt(g, {2})
        self._assert_same_topology(rebuilt, g)

    def test_rebuilt_none_touched_full_rebuild(self):
        g = path_graph(4)
        csr = CSRGraph.from_graph(g)
        g.add_edge(0, 3)
        self._assert_same_topology(csr.rebuilt(g), g)

    def test_engine_refresh_unstales_engine(self):
        g = erdos_renyi_graph(15, 0.2, seed=4)
        engine = CSREngine(g)
        g.add_edge(0, 99)  # guaranteed-new vertex: always a real mutation
        with pytest.raises(ParameterError):
            resolve_engine(g, engine)
        engine.refresh({0, 99})
        assert resolve_engine(g, engine) is engine
        expected = h_bz(g, 2, backend="dict").core_index
        assert h_bz(g, 2, backend=engine).core_index == expected

    def test_engine_refresh_is_noop_when_current(self):
        g = path_graph(4)
        engine = CSREngine(g)
        snapshot = engine.csr
        engine.refresh()
        assert engine.csr is snapshot

    def test_dict_engine_refresh_is_noop(self):
        g = path_graph(4)
        engine = DictEngine(g)
        g.add_edge(0, 3)
        engine.refresh()
        assert resolve_engine(g, engine) is engine

    def test_prebuilt_snapshot_from_older_graph_state_rejected(self):
        # The version stamp is taken at construction, so it cannot vouch
        # for a snapshot built before a mutation; the snapshot's recorded
        # source version must catch that at the constructor boundary.
        g = path_graph(4)
        csr = CSRGraph.from_graph(g)
        g.add_edge(0, 99)
        with pytest.raises(ParameterError):
            CSREngine(g, csr)

    def test_prebuilt_snapshot_rejected_even_with_equal_sizes(self):
        # remove+add keeps |V| and |E| identical; only the source-version
        # stamp distinguishes the stale snapshot from a fresh one.
        g = Graph([(0, 1), (1, 2), (2, 3)])
        csr = CSRGraph.from_graph(g)
        g.remove_edge(0, 1)
        g.add_edge(0, 2)
        with pytest.raises(ParameterError):
            CSREngine(g, csr)
        assert CSRGraph.from_graph(g).source_version == g.version
