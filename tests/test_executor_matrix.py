"""Executor x engine interaction battery.

BENCH_PR5's engine x executor matrix exposed that the thread executor added
nothing to the interpreted engines (every kernel held the GIL), so a thread
request now runs their serial kernel and only the native engine fans out.
This battery is the *correctness* half of the regression guard: every (engine, executor, workers) cell must produce
the same label-space h-degrees, the same decomposition, and the same merged
counter totals as the serial reference — including the native engine on
the thread path, where the kernels genuinely run concurrently (the GIL is
released), making result identity a real concurrency-safety assertion
rather than a tautology.

The wall-clock half (thread *faster* than serial for native) lives in
``benchmarks/test_native_engine.py`` with the other timing assertions.

The native engine runs through its interpreted-kernel lever when Numba is
absent (identical results); everything needing ndarrays skips without NumPy.
"""

from __future__ import annotations

import pytest

from repro.core import h_lb
from repro.core.backends import numpy_available, resolve_engine
from repro.graph import generators as gen
from repro.instrumentation import Counters
from repro.runtime import ExecutionContext

requires_numpy = pytest.mark.skipif(not numpy_available(),
                                    reason="NumPy not installed")

EXECUTOR_CELLS = [("serial", 1), ("thread", 2), ("thread", 4),
                  ("process", 2)]


@pytest.fixture(autouse=True)
def _allow_interpreted_kernels(monkeypatch):
    """Run the native cells without a compiler (results identical)."""
    monkeypatch.setenv("KH_CORE_NATIVE_ALLOW_INTERPRETED", "1")


def _engines_under_test():
    engines = ["dict", "csr"]
    if numpy_available():
        engines += ["numpy", "native"]
    return engines


def _matrix_graph():
    # Two caveman-ish communities plus shortcut edges: uneven degrees make
    # the LPT chunk plan produce genuinely different batches per worker
    # count, so a scheduling bug cannot hide behind uniform chunks.
    graph = gen.relaxed_caveman_graph(5, 8, 0.25, seed=13)
    for i in range(0, 30, 3):
        graph.add_edge(i, (i * 7 + 11) % graph.num_vertices)
    return graph


class TestResultIdentity:
    @pytest.mark.parametrize("engine_name", ["dict", "csr", "numpy",
                                             "native"])
    def test_bulk_h_degrees_identical_across_executors(self, engine_name):
        """Every executor cell returns the serial cell's exact dict."""
        if engine_name in ("numpy", "native") and not numpy_available():
            pytest.skip("NumPy not installed")
        graph = _matrix_graph()
        engine = resolve_engine(graph, engine_name)
        try:
            reference = None
            for executor, workers in EXECUTOR_CELLS:
                got = engine.to_labels(engine.bulk_h_degrees(
                    2, executor=executor, num_workers=workers))
                if reference is None:
                    reference = got
                else:
                    assert got == reference, (engine_name, executor, workers)
        finally:
            engine.close()

    @requires_numpy
    @pytest.mark.parametrize("executor,workers", EXECUTOR_CELLS,
                             ids=[f"{e}-{w}" for e, w in EXECUTOR_CELLS])
    def test_native_thread_matches_csr_serial(self, executor, workers):
        """The GIL-free path against the interpreted reference, cell by cell."""
        graph = _matrix_graph()
        csr = resolve_engine(graph, "csr")
        compiled = resolve_engine(graph, "native")
        try:
            expected = csr.to_labels(csr.bulk_h_degrees(2))
            got = compiled.to_labels(compiled.bulk_h_degrees(
                2, executor=executor, num_workers=workers))
            assert got == expected
        finally:
            csr.close()
            compiled.close()

    def test_decomposition_identical_across_matrix(self):
        """Full h-LB runs: cores and removal orders agree in every cell."""
        graph = _matrix_graph()
        reference = h_lb(graph, 2, backend="dict").core_index
        for engine_name in _engines_under_test():
            for executor, workers in EXECUTOR_CELLS:
                with ExecutionContext(graph, backend=engine_name,
                                      executor=executor,
                                      num_workers=workers) as context:
                    result = h_lb(graph, 2, context=context)
                assert result.core_index == reference, (
                    engine_name, executor, workers)

    def test_counter_totals_identical_across_executors(self):
        """Merged per-worker counters equal the serial totals exactly."""
        graph = _matrix_graph()
        for engine_name in _engines_under_test():
            if engine_name == "dict":
                # The dict engine's executor path routes through the
                # compute_h_degrees facade, whose counter surface the
                # facade tests already cover.
                continue
            totals = []
            engine = resolve_engine(graph, engine_name)
            try:
                for executor, workers in EXECUTOR_CELLS:
                    counters = Counters()
                    engine.bulk_h_degrees(2, executor=executor,
                                          num_workers=workers,
                                          counters=counters)
                    totals.append(counters.as_dict())
            finally:
                engine.close()
            assert all(t == totals[0] for t in totals), engine_name

    @requires_numpy
    def test_native_thread_under_peeling_alive_masks(self):
        """Threaded bulk passes over shrinking alive sets stay identical.

        Exercises the mid-peel shape: an alive mask with discards, a target
        subset, and multiple thread workers hitting the compiled bulk
        kernel through cloned scratches.
        """
        graph = _matrix_graph()
        csr = resolve_engine(graph, "csr")
        compiled = resolve_engine(graph, "native")
        try:
            survivors = [i for i in csr.nodes() if i % 3 != 0]
            masks = {"csr": csr.alive_subset(survivors),
                     "native": compiled.alive_subset(survivors)}
            expected = csr.bulk_h_degrees(2, targets=survivors,
                                          alive=masks["csr"])
            for workers in (2, 4):
                got = compiled.bulk_h_degrees(2, targets=survivors,
                                              alive=masks["native"],
                                              executor="thread",
                                              num_workers=workers)
                assert got == expected, workers
        finally:
            csr.close()
            compiled.close()


class TestSchedulingRule:
    """Threads fan out only on the GIL-free native kernels."""

    @pytest.mark.parametrize("engine_name", ["dict", "csr", "numpy"])
    def test_thread_request_runs_inline_on_gil_bound_engines(
            self, engine_name, monkeypatch):
        if engine_name == "numpy" and not numpy_available():
            pytest.skip("NumPy not installed")

        def no_threads(*args, **kwargs):
            raise AssertionError("a GIL-bound engine started a thread pool")

        graph = _matrix_graph()
        engine = resolve_engine(graph, engine_name)
        try:
            expected = engine.bulk_h_degrees(2, executor="serial")
            monkeypatch.setattr("repro.core.parallel.ThreadPoolExecutor",
                                no_threads)
            got = engine.bulk_h_degrees(2, executor="thread", num_workers=4)
        finally:
            engine.close()
        assert got == expected

    @requires_numpy
    def test_native_thread_request_fans_out(self, monkeypatch):
        import repro.core.parallel as parallel

        pools = []
        real_pool = parallel.ThreadPoolExecutor

        def spy(*args, **kwargs):
            pool = real_pool(*args, **kwargs)
            pools.append(pool)
            return pool

        graph = _matrix_graph()
        engine = resolve_engine(graph, "native")
        try:
            expected = engine.bulk_h_degrees(2, executor="serial")
            monkeypatch.setattr(parallel, "ThreadPoolExecutor", spy)
            got = engine.bulk_h_degrees(2, executor="thread", num_workers=4)
        finally:
            engine.close()
        assert len(pools) == 1
        assert got == expected
