"""Parity and lifecycle tests for the vectorized NumPy engine.

The numpy engine is not "approximately the CSR engine but faster": it drives
the *same* peel kernels through a structurally-twin scratch, so core
numbers, h-degrees, removal orders and instrumentation totals must be
bit-identical to the interpreted engines.  The battery asserts exactly
that — across every generator family, for h in {1, 2, 3}, with and without
the cache-locality relabeling, through both bulk kernels (stamped frontier
and bit-parallel dense), over every executor, and through the shared-memory
process path's zero-copy ``np.frombuffer`` views.

Everything here skips cleanly when NumPy is absent except the fallback
battery at the bottom, which asserts the *degraded* behavior: ``auto``
never selects numpy, an explicit request fails with a clear error, and the
worker-side kernel downgrade is silent.
"""

from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import compute_h_degrees, h_bz, h_lb, h_lb_ub
from repro.core.backends import (
    CSREngine,
    DictEngine,
    NumpyEngine,
    numpy_available,
    resolve_engine,
    resolved_backend_name,
)
from repro.errors import ParameterError
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph, relabel_order
from repro.instrumentation import Counters
from repro.runtime import ExecutionContext
from repro.traversal.array_bfs import DEAD, AliveMask, ArrayBFS

from test_peel_state import FAMILIES

requires_numpy = pytest.mark.skipif(not numpy_available(),
                                    reason="NumPy not installed")

RELABELS = [None, "degree", "bfs"]


def _label_degrees(engine, h, **kwargs):
    return engine.to_labels(engine.bulk_h_degrees(h, **kwargs))


# --------------------------------------------------------------------- #
# bulk h-degree parity
# --------------------------------------------------------------------- #
@requires_numpy
class TestBulkParity:
    @pytest.mark.parametrize("h", [1, 2, 3])
    @pytest.mark.parametrize("family", sorted(FAMILIES), ids=sorted(FAMILIES))
    @pytest.mark.parametrize("relabel", RELABELS,
                             ids=["plain", "degree", "bfs"])
    def test_bulk_h_degrees_all_families(self, family, h, relabel):
        """numpy == csr == dict h-degrees, and numpy/csr counter totals."""
        graph = FAMILIES[family]()
        reference = _label_degrees(DictEngine(graph), h)
        csr_counters, numpy_counters = Counters(), Counters()
        csr = CSREngine(graph, relabel=relabel)
        vec = NumpyEngine(graph, relabel=relabel)
        assert _label_degrees(csr, h, counters=csr_counters) == reference
        assert _label_degrees(vec, h, counters=numpy_counters) == reference
        assert numpy_counters.as_dict() == csr_counters.as_dict()

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_bulk_executors_match(self, executor):
        graph = gen.erdos_renyi_graph(60, 0.1, seed=5)
        expected = _label_degrees(CSREngine(graph), 2)
        vec = NumpyEngine(graph)
        assert _label_degrees(vec, 2, executor=executor,
                              num_workers=3) == expected

    def test_bulk_process_executor_matches(self):
        graph = gen.erdos_renyi_graph(48, 0.12, seed=6)
        expected = _label_degrees(CSREngine(graph), 2)
        vec = NumpyEngine(graph)
        try:
            assert _label_degrees(vec, 2, executor="process",
                                  num_workers=2) == expected
        finally:
            vec.close()

    def test_bulk_respects_alive_subset(self):
        graph = gen.relaxed_caveman_graph(4, 5, 0.2, seed=2)
        csr = CSREngine(graph)
        vec = NumpyEngine(graph)
        half = [i for i in csr.nodes() if i % 2 == 0]
        for engine in (csr, vec):
            alive = engine.alive_subset(half)
            got = engine.bulk_h_degrees(2, targets=half, alive=alive)
            if engine is csr:
                expected = got
        assert got == expected

    def test_compute_h_degrees_facade(self):
        graph = gen.watts_strogatz_graph(30, 4, 0.2, seed=4)
        assert (compute_h_degrees(graph, 2, backend="numpy")
                == compute_h_degrees(graph, 2, backend="dict"))


# --------------------------------------------------------------------- #
# whole-algorithm parity (shared peel kernels on top of the scratch)
# --------------------------------------------------------------------- #
@requires_numpy
class TestAlgorithmParity:
    @pytest.mark.parametrize("h", [1, 2, 3])
    @pytest.mark.parametrize("family", sorted(FAMILIES), ids=sorted(FAMILIES))
    def test_identical_runs_all_families(self, family, h):
        """Same cores, same removal order, same counters as the CSR engine."""
        graph = FAMILIES[family]()
        runs = {}
        for backend in ("csr", "numpy"):
            counters = Counters()
            with ExecutionContext(graph, backend=backend,
                                  counters=counters) as context:
                result = h_lb(graph, h, context=context)
            runs[backend] = (result.core_index, result.removal_order,
                             counters.as_dict())
        assert runs["numpy"][0] == runs["csr"][0], "core numbers diverged"
        assert runs["numpy"][1] == runs["csr"][1], "removal orders diverged"
        assert runs["numpy"][2] == runs["csr"][2], "counter totals diverged"

    @pytest.mark.parametrize("algorithm", [h_bz, h_lb, h_lb_ub],
                             ids=["h-BZ", "h-LB", "h-LB+UB"])
    @pytest.mark.parametrize("relabel", RELABELS,
                             ids=["plain", "degree", "bfs"])
    def test_relabeled_runs_agree(self, algorithm, relabel):
        """Relabeling changes indices, never label-space results."""
        graph = gen.powerlaw_cluster_graph(24, 2, 0.4, seed=9)
        reference = algorithm(graph, 2, backend="dict").core_index
        runs = {}
        for backend in ("csr", "numpy"):
            counters = Counters()
            with ExecutionContext(graph, backend=backend, relabel=relabel,
                                  counters=counters) as context:
                result = algorithm(graph, 2, context=context)
            assert result.core_index == reference, (backend, relabel)
            runs[backend] = (result.removal_order, counters.as_dict())
        # Under the *same* relabeling the two engines share one handle
        # space, so even the removal orders and counters coincide.
        assert runs["numpy"] == runs["csr"]

    @settings(max_examples=25, deadline=None)
    @given(
        num_vertices=st.integers(min_value=2, max_value=18),
        edge_probability=st.floats(min_value=0.05, max_value=0.6),
        seed=st.integers(min_value=0, max_value=10_000),
        h=st.integers(min_value=1, max_value=3),
        backend=st.sampled_from(["dict", "csr", "numpy", "auto"]),
        executor=st.sampled_from(["serial", "thread"]),
        workers=st.integers(min_value=1, max_value=3),
        relabel=st.sampled_from(RELABELS),
    )
    def test_hypothesis_engine_executor_sweep(self, num_vertices,
                                              edge_probability, seed, h,
                                              backend, executor, workers,
                                              relabel):
        """Random graphs through the context: every mix equals the reference."""
        graph = gen.erdos_renyi_graph(num_vertices, edge_probability,
                                      seed=seed)
        reference = h_lb(graph, h, backend="dict").core_index
        with ExecutionContext(graph, backend=backend, executor=executor,
                              num_workers=workers,
                              relabel=relabel) as context:
            for algorithm in (h_lb, h_lb_ub, h_bz):
                assert algorithm(graph, h,
                                 context=context).core_index == reference


# --------------------------------------------------------------------- #
# scratch-level parity (single-source runs, both bulk kernels)
# --------------------------------------------------------------------- #
@requires_numpy
class TestScratchParity:
    def scratches(self, graph):
        from repro.traversal.numpy_bfs import NumpyBFS

        csr = CSRGraph.from_graph(graph)
        return csr, ArrayBFS(csr), NumpyBFS(csr)

    @pytest.mark.parametrize("family", sorted(FAMILIES), ids=sorted(FAMILIES))
    def test_single_source_identical_orders(self, family):
        """Visit order, level segmentation, distances: all identical."""
        graph = FAMILIES[family]()
        csr, interpreted, vectorized = self.scratches(graph)
        for source in range(csr.num_vertices):
            for h in (1, 2, None):
                a = interpreted.run(source, h)
                b = vectorized.run(source, h)
                assert a == b
                assert interpreted.order == vectorized.order
                assert interpreted.level_ends == vectorized.level_ends
                assert (interpreted.visited_with_distance()
                        == vectorized.visited_with_distance())

    def test_alive_mask_and_discard_sync(self):
        """Shared AliveMask protocol: installs and discards stay in sync."""
        graph = gen.relaxed_caveman_graph(3, 5, 0.2, seed=1)
        csr, interpreted, vectorized = self.scratches(graph)
        a_mask = AliveMask.full(csr.num_vertices)
        b_mask = AliveMask.full(csr.num_vertices)
        order = list(range(csr.num_vertices))
        for victim in order[::2]:
            assert (interpreted.run(victim, 2, a_mask)
                    == vectorized.run(victim, 2, b_mask))
            assert interpreted.order == vectorized.order
            # Discard after the run: the next runs must skip the victim via
            # the DEAD sentinel both scratches share.
            a_mask.discard(victim)
            b_mask.discard(victim)
        survivors = [v for v in order if v not in set(order[::2])]
        for source in survivors:
            assert (interpreted.run(source, 3, a_mask)
                    == vectorized.run(source, 3, b_mask))
            assert interpreted.order == vectorized.order

    def test_generation_rollover_is_sound(self):
        """Forcing the generation to the sentinel resets instead of corrupting."""
        graph = gen.cycle_graph(8)
        _, interpreted, vectorized = self.scratches(graph)
        expected = vectorized.run(0, 2)
        vectorized._generation = DEAD - 1
        assert vectorized.run(0, 2) == expected
        assert vectorized._generation == 1  # restarted after the reinstall
        interpreted._generation = DEAD - 1
        assert interpreted.run(0, 2) == expected
        assert interpreted._generation == 1

    def test_block_and_dense_kernels_agree(self):
        """Both bulk kernels and the per-source loop: one answer."""
        import numpy as np

        for builder in (lambda: gen.star_graph(40),
                        lambda: gen.erdos_renyi_graph(50, 0.15, seed=8),
                        lambda: gen.grid_graph(6, 6)):
            graph = builder()
            csr, interpreted, vectorized = self.scratches(graph)
            sources = np.arange(csr.num_vertices, dtype=np.int64)
            for h in (1, 2, 3):
                per_source = [interpreted.run(v, h)
                              for v in range(csr.num_vertices)]
                dense = vectorized._run_dense(sources, h)
                block = vectorized.bulk(sources.tolist(), h)
                assert dense.tolist() == per_source
                assert block.tolist() == per_source

    def test_dense_selection_is_forced_through_bulk(self, monkeypatch):
        """bulk() with the probe forced each way returns the same degrees."""
        from repro.traversal import numpy_bfs

        graph = gen.star_graph(30)
        _, interpreted, vectorized = self.scratches(graph)
        expected = [interpreted.run(v, 2) for v in range(31)]
        for choice in (True, False):
            monkeypatch.setattr(numpy_bfs.NumpyBFS, "_dense_preferred",
                                lambda self, src, h, _c=choice: _c)
            assert vectorized.bulk(range(31), 2).tolist() == expected

    def test_counters_batch_totals(self):
        graph = gen.erdos_renyi_graph(40, 0.12, seed=3)
        csr, interpreted, vectorized = self.scratches(graph)
        loop_counters, bulk_counters = Counters(), Counters()
        for v in range(csr.num_vertices):
            interpreted.run(v, 2, counters=loop_counters)
        vectorized.bulk(range(csr.num_vertices), 2, counters=bulk_counters)
        assert bulk_counters.bfs_calls == loop_counters.bfs_calls
        assert (bulk_counters.vertices_visited
                == loop_counters.vertices_visited)


# --------------------------------------------------------------------- #
# shared-memory path
# --------------------------------------------------------------------- #
@requires_numpy
class TestSharedMemoryViews:
    def test_numpy_views_roundtrip_and_close(self):
        import numpy as np

        from repro.parallel import SharedCSRExport, SharedCSRView

        graph = gen.erdos_renyi_graph(30, 0.2, seed=1)
        csr = CSRGraph.from_graph(graph)
        export = SharedCSRExport(csr, generation=1)
        try:
            view = SharedCSRView(export.layout())
            indptr, adjacency, alive = view.numpy_views()
            assert indptr.tolist() == list(csr.indptr)
            assert adjacency.tolist() == list(csr.adjacency)
            assert alive.shape == (csr.num_vertices,)
            assert indptr.dtype == np.int64
            # Cached: repeated calls hand back the same zero-copy views.
            assert view.numpy_views()[0] is indptr
            # The caller must drop its ndarray references before close —
            # they pin the shared block (same contract the worker's
            # _detach honors by dropping the scratch first).
            del indptr, adjacency, alive
            view.close()
            view.close()  # idempotent
        finally:
            export.close()

    def test_run_chunk_numpy_kind_matches_csr_kind(self):
        from repro.parallel import SharedCSRExport
        from repro.parallel.worker import run_chunk

        graph = gen.relaxed_caveman_graph(4, 5, 0.2, seed=4)
        csr = CSRGraph.from_graph(graph)
        export = SharedCSRExport(csr, generation=1)
        try:
            chunk = list(range(csr.num_vertices))
            csr_pairs, csr_counters = run_chunk(export.layout(), chunk, 2,
                                                False, 0, "csr")
            np_pairs, np_counters = run_chunk(export.layout(), chunk, 2,
                                              False, 0, "numpy")
            assert dict(np_pairs) == dict(csr_pairs)
            assert np_counters.as_dict() == csr_counters.as_dict()
        finally:
            from repro.parallel.worker import _detach

            _detach()
            export.close()

    def test_run_chunk_falls_back_without_numpy(self, monkeypatch):
        """engine_kind='numpy' downgrades silently when the import fails."""
        from repro.parallel import SharedCSRExport
        from repro.parallel import worker as worker_module

        graph = gen.cycle_graph(12)
        csr = CSRGraph.from_graph(graph)
        export = SharedCSRExport(csr, generation=1)
        monkeypatch.setitem(sys.modules, "repro.traversal.numpy_bfs", None)
        try:
            pairs, _ = worker_module.run_chunk(export.layout(),
                                               list(range(12)), 2, False, 0,
                                               "numpy")
            assert worker_module._STATE["kind"] == "csr"
            assert dict(pairs) == {v: 4 for v in range(12)}
            # The downgrade is cached under the *requested* kind: the next
            # numpy-kind task must reuse the attachment instead of
            # re-attaching (and re-failing the import) per chunk.
            view = worker_module._STATE["view"]
            worker_module.run_chunk(export.layout(), [0, 1], 2, False, 0,
                                    "numpy")
            assert worker_module._STATE["view"] is view
        finally:
            worker_module._detach()
            export.close()


# --------------------------------------------------------------------- #
# engine resolution, refresh, relabeling plumbing
# --------------------------------------------------------------------- #
@requires_numpy
class TestEngineResolution:
    def test_explicit_numpy_engine(self):
        graph = gen.cycle_graph(6)
        engine = resolve_engine(graph, "numpy")
        assert isinstance(engine, NumpyEngine)
        assert engine.name == "numpy"

    def test_auto_prefers_numpy_above_threshold(self, monkeypatch):
        from repro.core import backends

        graph = gen.cycle_graph(40)
        monkeypatch.setattr(backends, "NUMPY_AUTO_MIN_VERTICES", 0)
        assert resolved_backend_name(graph, "auto") == "numpy"
        assert isinstance(resolve_engine(graph, "auto"), NumpyEngine)
        monkeypatch.setattr(backends, "NUMPY_AUTO_MIN_VERTICES", 100)
        assert resolved_backend_name(graph, "auto") == "csr"
        engine = resolve_engine(graph, "auto")
        assert isinstance(engine, CSREngine)
        assert not isinstance(engine, NumpyEngine)

    def test_refresh_rebuilds_vectorized_scratch(self):
        from repro.traversal.numpy_bfs import NumpyBFS

        graph = gen.cycle_graph(10)
        engine = NumpyEngine(graph)
        assert isinstance(engine.scratch, NumpyBFS)
        before = _label_degrees(engine, 2)
        graph.add_edge(0, 5)
        engine.refresh({0, 5})
        assert isinstance(engine.scratch, NumpyBFS)
        after = _label_degrees(engine, 2)
        assert after == _label_degrees(DictEngine(graph), 2)
        assert after != before

    def test_relabel_through_context(self):
        graph = gen.barabasi_albert_graph(30, 2, seed=2)
        with ExecutionContext(graph, backend="numpy",
                              relabel="degree") as context:
            assert context.engine.csr.labels == relabel_order(graph,
                                                              "degree")

    def test_relabel_rejected_with_supplied_snapshot(self):
        graph = gen.cycle_graph(6)
        snapshot = CSRGraph.from_graph(graph)
        with pytest.raises(ParameterError):
            CSREngine(graph, csr=snapshot, relabel="degree")

    def test_relabel_rejected_with_supplied_engine(self):
        # Silently ignoring the request would leave the caller believing
        # the permutation is active; mirror the supplied-snapshot error.
        graph = gen.cycle_graph(6)
        engine = CSREngine(graph)
        with pytest.raises(ParameterError, match="vertex order is fixed"):
            resolve_engine(graph, engine, relabel="bfs")
        with pytest.raises(ParameterError):
            ExecutionContext(graph, backend=engine, relabel="bfs")

    def test_relabel_survives_full_rebuild_refresh(self):
        """A refresh that falls back to a full rebuild re-applies relabel."""
        graph = gen.barabasi_albert_graph(24, 2, seed=5)
        engine = NumpyEngine(graph, relabel="degree")
        assert engine.csr.labels == relabel_order(graph, "degree")
        # Removing a vertex makes index stability impossible, forcing the
        # delta rebuild onto its full from_graph fallback.
        victim = engine.csr.labels[-1]
        graph.remove_vertex(victim)
        engine.refresh(None)
        assert engine.csr.labels == relabel_order(graph, "degree")
        assert (_label_degrees(engine, 2)
                == _label_degrees(DictEngine(graph), 2))

    def test_unknown_relabel_rejected(self):
        with pytest.raises(ParameterError):
            NumpyEngine(gen.cycle_graph(6), relabel="sorted")

    def test_dynamic_engine_on_numpy_backend(self):
        from repro.dynamic import DynamicKHCore

        graph = gen.cycle_graph(8)
        engine = DynamicKHCore(graph, h=2, backend="numpy", relabel="bfs")
        try:
            assert engine.backend == "numpy"
            engine.insert_edge(0, 4)
            expected = h_lb(engine.graph, 2, backend="dict").core_index
            assert engine.core_numbers() == expected
        finally:
            engine.close()


# --------------------------------------------------------------------- #
# the degraded story: NumPy absent
# --------------------------------------------------------------------- #
class TestWithoutNumpy:
    def test_auto_never_selects_numpy(self, monkeypatch):
        from repro.core import backends

        monkeypatch.setattr(backends, "numpy_available", lambda: False)
        monkeypatch.setattr(backends, "NUMPY_AUTO_MIN_VERTICES", 0)
        graph = gen.cycle_graph(40)
        assert resolved_backend_name(graph, "auto") == "csr"
        engine = resolve_engine(graph, "auto")
        assert isinstance(engine, CSREngine)
        assert not isinstance(engine, NumpyEngine)

    def test_explicit_request_raises_clear_error(self, monkeypatch):
        from repro.core import backends

        # Simulate a genuinely missing install (not the kill switch): the
        # error must point at the optional dependency.
        monkeypatch.delenv("KH_CORE_DISABLE_NUMPY", raising=False)
        monkeypatch.setattr(backends, "numpy_available", lambda: False)
        with pytest.raises(ParameterError, match="optional NumPy"):
            resolve_engine(gen.cycle_graph(6), "numpy")

    def test_numpy_available_reflects_import_state(self, monkeypatch):
        monkeypatch.delenv("KH_CORE_DISABLE_NUMPY", raising=False)
        try:
            import numpy  # noqa: F401

            assert numpy_available()
        except ImportError:
            assert not numpy_available()

    def test_disable_env_var_is_a_kill_switch(self, monkeypatch):
        monkeypatch.setenv("KH_CORE_DISABLE_NUMPY", "1")
        assert not numpy_available()
        # The error names the kill switch, not a missing dependency —
        # "pip install" advice would be wrong when NumPy is installed.
        with pytest.raises(ParameterError, match="KH_CORE_DISABLE_NUMPY"):
            resolve_engine(gen.cycle_graph(6), "numpy")
        monkeypatch.setenv("KH_CORE_DISABLE_NUMPY", "0")
        # "0" and empty mean enabled (subject to the actual install).
        import importlib.util

        assert numpy_available() == (importlib.util.find_spec("numpy")
                                     is not None)
