"""Parity and lifecycle tests for the compiled ``native`` engine.

Exactly the contract the numpy battery enforces, one engine further up the
ladder: the native engine drives the *same* peel kernels through a
structurally-twin scratch, so core numbers, h-degrees, removal orders and
instrumentation totals must be bit-identical to every interpreted engine —
across every generator family, for h in {1, 2, 3}, with and without the
cache-locality relabeling, over every executor, and through the
shared-memory process path.

Numba itself is optional even for this battery: when it is absent the
kernels run as interpreted Python (the ``KH_CORE_NATIVE_ALLOW_INTERPRETED``
lever, set by the autouse fixture below), which executes the identical
kernel code path minus the compilation — so CI machines without a working
LLVM still verify every result the compiled engine can produce.  Only NumPy
is genuinely required; without it everything here skips except the
degraded-story battery at the bottom.
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
    NativeEngine,
    native_available,
    resolve_engine,
    resolved_backend_name,
    numpy_available,
)
from repro.errors import ParameterError
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph, relabel_order
from repro.instrumentation import Counters
from repro.runtime import ExecutionContext
from repro.traversal.array_bfs import DEAD, AliveMask, ArrayBFS

from test_peel_state import FAMILIES

# The native *code paths* need only NumPy: the autouse fixture below allows
# the interpreted-kernel fallback, so the battery runs with or without a
# real Numba install.
requires_numpy = pytest.mark.skipif(not numpy_available(),
                                    reason="NumPy not installed")

RELABELS = [None, "degree", "bfs"]


@pytest.fixture(autouse=True)
def _allow_interpreted_kernels(monkeypatch):
    """Let the native engine run without a compiler (results identical)."""
    monkeypatch.setenv("KH_CORE_NATIVE_ALLOW_INTERPRETED", "1")


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
        """native == csr == dict h-degrees, and native/csr counter totals."""
        graph = FAMILIES[family]()
        reference = _label_degrees(DictEngine(graph), h)
        csr_counters, native_counters = Counters(), Counters()
        csr = CSREngine(graph, relabel=relabel)
        compiled = NativeEngine(graph, relabel=relabel)
        assert _label_degrees(csr, h, counters=csr_counters) == reference
        assert _label_degrees(compiled, h,
                              counters=native_counters) == reference
        assert native_counters.as_dict() == csr_counters.as_dict()

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_bulk_executors_match(self, executor):
        graph = gen.erdos_renyi_graph(60, 0.1, seed=5)
        expected = _label_degrees(CSREngine(graph), 2)
        compiled = NativeEngine(graph)
        assert _label_degrees(compiled, 2, executor=executor,
                              num_workers=3) == expected

    def test_bulk_process_executor_matches(self):
        graph = gen.erdos_renyi_graph(48, 0.12, seed=6)
        expected = _label_degrees(CSREngine(graph), 2)
        compiled = NativeEngine(graph)
        try:
            assert _label_degrees(compiled, 2, executor="process",
                                  num_workers=2) == expected
        finally:
            compiled.close()

    def test_bulk_respects_alive_subset(self):
        graph = gen.relaxed_caveman_graph(4, 5, 0.2, seed=2)
        csr = CSREngine(graph)
        compiled = NativeEngine(graph)
        half = [i for i in csr.nodes() if i % 2 == 0]
        expected = None
        for engine in (csr, compiled):
            alive = engine.alive_subset(half)
            got = engine.bulk_h_degrees(2, targets=half, alive=alive)
            if engine is csr:
                expected = got
        assert got == expected

    def test_compute_h_degrees_facade(self):
        graph = gen.watts_strogatz_graph(30, 4, 0.2, seed=4)
        assert (compute_h_degrees(graph, 2, backend="native")
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
        for backend in ("csr", "native"):
            counters = Counters()
            with ExecutionContext(graph, backend=backend,
                                  counters=counters) as context:
                result = h_lb(graph, h, context=context)
            runs[backend] = (result.core_index, result.removal_order,
                             counters.as_dict())
        assert runs["native"][0] == runs["csr"][0], "core numbers diverged"
        assert runs["native"][1] == runs["csr"][1], "removal orders diverged"
        assert runs["native"][2] == runs["csr"][2], "counter totals diverged"

    @pytest.mark.parametrize("algorithm", [h_bz, h_lb, h_lb_ub],
                             ids=["h-BZ", "h-LB", "h-LB+UB"])
    @pytest.mark.parametrize("relabel", RELABELS,
                             ids=["plain", "degree", "bfs"])
    def test_relabeled_runs_agree(self, algorithm, relabel):
        """Relabeling changes indices, never label-space results."""
        graph = gen.powerlaw_cluster_graph(24, 2, 0.4, seed=9)
        reference = algorithm(graph, 2, backend="dict").core_index
        runs = {}
        for backend in ("csr", "native"):
            counters = Counters()
            with ExecutionContext(graph, backend=backend, relabel=relabel,
                                  counters=counters) as context:
                result = algorithm(graph, 2, context=context)
            assert result.core_index == reference, (backend, relabel)
            runs[backend] = (result.removal_order, counters.as_dict())
        # Under the *same* relabeling the two engines share one handle
        # space, so even the removal orders and counters coincide.
        assert runs["native"] == runs["csr"]

    def test_four_engine_agreement(self):
        """dict, csr, numpy and native: one decomposition, to the bit."""
        graph = gen.watts_strogatz_graph(48, 4, 0.1, seed=11)
        runs = {}
        for backend in ("dict", "csr", "numpy", "native"):
            result = h_lb(graph, 2, backend=backend)
            runs[backend] = (result.core_index, result.removal_order)
        assert runs["csr"] == runs["numpy"] == runs["native"]
        assert runs["dict"][0] == runs["csr"][0]

    @settings(max_examples=25, deadline=None)
    @given(
        num_vertices=st.integers(min_value=2, max_value=18),
        edge_probability=st.floats(min_value=0.05, max_value=0.6),
        seed=st.integers(min_value=0, max_value=10_000),
        h=st.integers(min_value=1, max_value=3),
        executor=st.sampled_from(["serial", "thread"]),
        workers=st.integers(min_value=1, max_value=3),
        relabel=st.sampled_from(RELABELS),
    )
    def test_hypothesis_native_executor_sweep(self, num_vertices,
                                              edge_probability, seed, h,
                                              executor, workers, relabel):
        """Random graphs through the context: every mix equals the reference."""
        import os

        os.environ.setdefault("KH_CORE_NATIVE_ALLOW_INTERPRETED", "1")
        graph = gen.erdos_renyi_graph(num_vertices, edge_probability,
                                      seed=seed)
        reference = h_lb(graph, h, backend="dict").core_index
        with ExecutionContext(graph, backend="native", executor=executor,
                              num_workers=workers,
                              relabel=relabel) as context:
            for algorithm in (h_lb, h_lb_ub, h_bz):
                assert algorithm(graph, h,
                                 context=context).core_index == reference


# --------------------------------------------------------------------- #
# scratch-level parity (single-source runs, the bulk kernel)
# --------------------------------------------------------------------- #
@requires_numpy
class TestScratchParity:
    def scratches(self, graph):
        from repro.traversal.native_bfs import NativeBFS

        csr = CSRGraph.from_graph(graph)
        return csr, ArrayBFS(csr), NativeBFS(csr)

    @pytest.mark.parametrize("family", sorted(FAMILIES), ids=sorted(FAMILIES))
    def test_single_source_identical_orders(self, family):
        """Visit order, level segmentation, distances: all identical."""
        graph = FAMILIES[family]()
        csr, interpreted, compiled = self.scratches(graph)
        for source in range(csr.num_vertices):
            for h in (1, 2, None):
                a = interpreted.run(source, h)
                b = compiled.run(source, h)
                assert a == b
                assert interpreted.order == compiled.order
                assert interpreted.level_ends == compiled.level_ends
                assert (interpreted.visited_with_distance()
                        == compiled.visited_with_distance())

    def test_alive_mask_and_discard_sync(self):
        """Shared AliveMask protocol: installs and discards stay in sync."""
        graph = gen.relaxed_caveman_graph(3, 5, 0.2, seed=1)
        csr, interpreted, compiled = self.scratches(graph)
        a_mask = AliveMask.full(csr.num_vertices)
        b_mask = AliveMask.full(csr.num_vertices)
        order = list(range(csr.num_vertices))
        for victim in order[::2]:
            assert (interpreted.run(victim, 2, a_mask)
                    == compiled.run(victim, 2, b_mask))
            assert interpreted.order == compiled.order
            # Discard after the run: the next runs must skip the victim via
            # the DEAD sentinel both scratches share.
            a_mask.discard(victim)
            b_mask.discard(victim)
        survivors = [v for v in order if v not in set(order[::2])]
        for source in survivors:
            assert (interpreted.run(source, 3, a_mask)
                    == compiled.run(source, 3, b_mask))
            assert interpreted.order == compiled.order

    def test_generation_rollover_is_sound(self):
        """Forcing the generation to the sentinel resets instead of corrupting."""
        graph = gen.cycle_graph(8)
        _, interpreted, compiled = self.scratches(graph)
        expected = compiled.run(0, 2)
        compiled._generation = DEAD - 1
        assert compiled.run(0, 2) == expected
        assert compiled._generation == 1  # restarted after the reinstall

    def test_bulk_kernel_matches_per_source_loop(self):
        """The many-sources kernel and the per-source loop: one answer."""
        for builder in (lambda: gen.star_graph(40),
                        lambda: gen.erdos_renyi_graph(50, 0.15, seed=8),
                        lambda: gen.grid_graph(6, 6)):
            graph = builder()
            csr, interpreted, compiled = self.scratches(graph)
            sources = list(range(csr.num_vertices))
            for h in (1, 2, 3):
                per_source = [interpreted.run(v, h) for v in sources]
                assert compiled.bulk(sources, h).tolist() == per_source

    def test_bulk_respects_alive_mask(self):
        graph = gen.relaxed_caveman_graph(4, 4, 0.3, seed=7)
        csr, interpreted, compiled = self.scratches(graph)
        alive = AliveMask.of(csr.num_vertices,
                             range(0, csr.num_vertices, 2))
        sources = list(range(0, csr.num_vertices, 2))
        expected = [interpreted.run(v, 2, alive, hook=False)
                    for v in sources]
        assert compiled.bulk(sources, 2, alive).tolist() == expected

    def test_bulk_generation_rollover_is_sound(self):
        graph = gen.cycle_graph(10)
        _, _, compiled = self.scratches(graph)
        expected = compiled.bulk(range(10), 2).tolist()
        compiled._bulk_generation = DEAD - 3
        assert compiled.bulk(range(10), 2).tolist() == expected

    def test_counters_batch_totals(self):
        graph = gen.erdos_renyi_graph(40, 0.12, seed=3)
        csr, interpreted, compiled = self.scratches(graph)
        loop_counters, bulk_counters = Counters(), Counters()
        for v in range(csr.num_vertices):
            interpreted.run(v, 2, counters=loop_counters)
        compiled.bulk(range(csr.num_vertices), 2, counters=bulk_counters)
        assert bulk_counters.bfs_calls == loop_counters.bfs_calls
        assert (bulk_counters.vertices_visited
                == loop_counters.vertices_visited)

    def test_clone_shares_arrays_not_scratch(self):
        graph = gen.grid_graph(5, 5)
        _, _, compiled = self.scratches(graph)
        twin = compiled.clone()
        assert twin.indptr is compiled.indptr
        assert twin.adjacency is compiled.adjacency
        assert twin._seen is not compiled._seen
        assert compiled.run(0, 2) == twin.run(0, 2)
        assert compiled.order == twin.order


# --------------------------------------------------------------------- #
# shared-memory path
# --------------------------------------------------------------------- #
@requires_numpy
class TestSharedMemoryPath:
    def test_run_chunk_native_kind_matches_csr_kind(self):
        from repro.parallel import SharedCSRExport
        from repro.parallel.worker import run_chunk

        graph = gen.relaxed_caveman_graph(4, 5, 0.2, seed=4)
        csr = CSRGraph.from_graph(graph)
        export = SharedCSRExport(csr, generation=1)
        try:
            chunk = list(range(csr.num_vertices))
            csr_pairs, csr_counters = run_chunk(export.layout(), chunk, 2,
                                                False, 0, "csr")
            nat_pairs, nat_counters = run_chunk(export.layout(), chunk, 2,
                                                False, 0, "native")
            assert dict(nat_pairs) == dict(csr_pairs)
            assert nat_counters.as_dict() == csr_counters.as_dict()
        finally:
            from repro.parallel.worker import _detach

            _detach()
            export.close()

    def test_run_chunk_downgrades_to_numpy_without_numba(self, monkeypatch):
        """engine_kind='native' falls one rung to the vectorized kernel."""
        from repro.parallel import SharedCSRExport
        from repro.parallel import worker as worker_module

        # No compiler and no interpreted lever: the native kind must not
        # attach, but the worker still has NumPy.
        monkeypatch.delenv("KH_CORE_NATIVE_ALLOW_INTERPRETED", raising=False)
        graph = gen.cycle_graph(12)
        csr = CSRGraph.from_graph(graph)
        export = SharedCSRExport(csr, generation=1)
        try:
            import repro.traversal.native_bfs as native_bfs

            if native_bfs.NUMBA_AVAILABLE:
                pytest.skip("numba installed: no downgrade to observe")
            pairs, _ = worker_module.run_chunk(export.layout(),
                                               list(range(12)), 2, False, 0,
                                               "native")
            assert worker_module._STATE["kind"] == "numpy"
            assert dict(pairs) == {v: 4 for v in range(12)}
            # The downgrade is cached under the *requested* kind.
            view = worker_module._STATE["view"]
            worker_module.run_chunk(export.layout(), [0, 1], 2, False, 0,
                                    "native")
            assert worker_module._STATE["view"] is view
        finally:
            worker_module._detach()
            export.close()

    def test_run_chunk_bottoms_out_at_interpreted(self, monkeypatch):
        """With neither Numba nor NumPy importable, the csr kernel answers."""
        from repro.parallel import SharedCSRExport
        from repro.parallel import worker as worker_module

        graph = gen.cycle_graph(12)
        csr = CSRGraph.from_graph(graph)
        export = SharedCSRExport(csr, generation=1)
        monkeypatch.setitem(sys.modules, "repro.traversal.native_bfs", None)
        monkeypatch.setitem(sys.modules, "repro.traversal.numpy_bfs", None)
        try:
            pairs, _ = worker_module.run_chunk(export.layout(),
                                               list(range(12)), 2, False, 0,
                                               "native")
            assert worker_module._STATE["kind"] == "csr"
            assert dict(pairs) == {v: 4 for v in range(12)}
        finally:
            worker_module._detach()
            export.close()


# --------------------------------------------------------------------- #
# engine resolution, warm-up, refresh, dynamic plumbing
# --------------------------------------------------------------------- #
@requires_numpy
class TestEngineResolution:
    def test_explicit_native_engine(self):
        graph = gen.cycle_graph(6)
        engine = resolve_engine(graph, "native")
        assert isinstance(engine, NativeEngine)
        assert engine.name == "native"

    def test_auto_prefers_native_above_threshold(self, monkeypatch):
        from repro.core import backends

        graph = gen.cycle_graph(40)
        monkeypatch.setattr(backends, "NATIVE_AUTO_MIN_VERTICES", 0)
        assert resolved_backend_name(graph, "auto") == "native"
        assert isinstance(resolve_engine(graph, "auto"), NativeEngine)
        monkeypatch.setattr(backends, "NATIVE_AUTO_MIN_VERTICES", 100)
        monkeypatch.setattr(backends, "NUMPY_AUTO_MIN_VERTICES", 100)
        assert resolved_backend_name(graph, "auto") == "csr"

    def test_auto_ladder_native_sits_above_numpy(self, monkeypatch):
        """Between the two thresholds auto picks numpy, above both native."""
        from repro.core import backends

        graph = gen.cycle_graph(50)
        monkeypatch.setattr(backends, "NUMPY_AUTO_MIN_VERTICES", 10)
        monkeypatch.setattr(backends, "NATIVE_AUTO_MIN_VERTICES", 100)
        assert resolved_backend_name(graph, "auto") == "numpy"
        monkeypatch.setattr(backends, "NATIVE_AUTO_MIN_VERTICES", 10)
        assert resolved_backend_name(graph, "auto") == "native"

    def test_warmup_runs_at_construction_by_default(self, monkeypatch):
        from repro.traversal import native_bfs

        calls = []
        monkeypatch.setattr(native_bfs, "warmup_kernels",
                            lambda: calls.append(1))
        NativeEngine(gen.cycle_graph(6))
        assert calls == [1]

    def test_warmup_is_idempotent(self):
        from repro.traversal.native_bfs import warmup_kernels

        warmup_kernels()
        warmup_kernels()

    def test_refresh_rebuilds_compiled_scratch(self):
        from repro.traversal.native_bfs import NativeBFS

        graph = gen.cycle_graph(10)
        engine = NativeEngine(graph)
        assert isinstance(engine.scratch, NativeBFS)
        before = _label_degrees(engine, 2)
        graph.add_edge(0, 5)
        engine.refresh({0, 5})
        assert isinstance(engine.scratch, NativeBFS)
        after = _label_degrees(engine, 2)
        assert after == _label_degrees(DictEngine(graph), 2)
        assert after != before

    def test_array_peel_is_inherited(self):
        """peel='auto' resolves to the array kernel, as for every CSR child."""
        from repro.runtime.peel import resolve_peel_kind

        engine = NativeEngine(gen.cycle_graph(8))
        assert resolve_peel_kind(engine, "auto") == "array"

    def test_relabel_through_context(self):
        graph = gen.barabasi_albert_graph(30, 2, seed=2)
        with ExecutionContext(graph, backend="native",
                              relabel="degree") as context:
            assert context.engine.csr.labels == relabel_order(graph,
                                                              "degree")

    def test_dynamic_engine_on_native_backend(self):
        from repro.dynamic import DynamicKHCore

        graph = gen.cycle_graph(8)
        engine = DynamicKHCore(graph, h=2, backend="native", relabel="bfs")
        try:
            assert engine.backend == "native"
            engine.insert_edge(0, 4)
            expected = h_lb(engine.graph, 2, backend="dict").core_index
            assert engine.core_numbers() == expected
        finally:
            engine.close()


# --------------------------------------------------------------------- #
# the degraded story: Numba absent / disabled
# --------------------------------------------------------------------- #
class TestWithoutNative:
    def test_auto_never_selects_native(self, monkeypatch):
        from repro.core import backends

        monkeypatch.setattr(backends, "native_available", lambda: False)
        monkeypatch.setattr(backends, "NATIVE_AUTO_MIN_VERTICES", 0)
        graph = gen.cycle_graph(40)
        assert resolved_backend_name(graph, "auto") in ("csr", "numpy")
        engine = resolve_engine(graph, "auto")
        assert not isinstance(engine, NativeEngine)

    def test_explicit_request_raises_clear_error(self, monkeypatch):
        from repro.core import backends

        # Simulate a genuinely missing install (not the kill switch): the
        # error must point at the optional dependency.
        monkeypatch.delenv("KH_CORE_DISABLE_NATIVE", raising=False)
        monkeypatch.setattr(backends, "native_available", lambda: False)
        with pytest.raises(ParameterError, match="optional Numba"):
            resolve_engine(gen.cycle_graph(6), "native")

    def test_disable_env_var_is_a_kill_switch(self, monkeypatch):
        monkeypatch.setenv("KH_CORE_DISABLE_NATIVE", "1")
        monkeypatch.setenv("KH_CORE_NATIVE_ALLOW_INTERPRETED", "1")
        assert not native_available()
        # The error names the kill switch, not a missing dependency —
        # "pip install" advice would be wrong when Numba is installed.
        with pytest.raises(ParameterError, match="KH_CORE_DISABLE_NATIVE"):
            resolve_engine(gen.cycle_graph(6), "native")

    def test_native_requires_numpy_too(self, monkeypatch):
        """The kernels run on ndarrays: no NumPy means no native engine."""
        monkeypatch.setenv("KH_CORE_DISABLE_NUMPY", "1")
        monkeypatch.setenv("KH_CORE_NATIVE_ALLOW_INTERPRETED", "1")
        assert not native_available()

    def test_interpreted_lever_enables_without_numba(self, monkeypatch):
        import importlib.util

        monkeypatch.delenv("KH_CORE_DISABLE_NATIVE", raising=False)
        monkeypatch.delenv("KH_CORE_DISABLE_NUMPY", raising=False)
        monkeypatch.setenv("KH_CORE_NATIVE_ALLOW_INTERPRETED", "1")
        if importlib.util.find_spec("numpy") is None:
            assert not native_available()
        else:
            assert native_available()
        monkeypatch.delenv("KH_CORE_NATIVE_ALLOW_INTERPRETED", raising=False)
        if importlib.util.find_spec("numba") is None:
            assert not native_available()

    def test_native_module_imports_without_numba(self):
        """The kernel module itself never hard-requires the compiler."""
        import repro.traversal.native_bfs as native_bfs

        assert hasattr(native_bfs, "NativeBFS")
        assert isinstance(native_bfs.NUMBA_AVAILABLE, bool)
