"""Benchmark: compiled native engine — frontier speedups and thread scaling.

BENCH_PR5 left two residuals on the table: the numpy engine's win collapsed
to ~2.4-2.8x on *frontier-bound* workloads (per-level dispatch overhead),
and the engine x executor matrix showed the thread executor adding nothing
anywhere (every kernel held the GIL).  The native engine's Numba kernels
attack both at once — the whole h-bounded BFS is one compiled call, and
``nogil=True`` makes thread workers genuinely concurrent.  This module
asserts both effects, with bit-identical results checked per row:

1. **>= 10x over the interpreted CSR engine on the frontier workloads**
   (WS ring at h=2, grid mesh at h=3) — exactly the rows where the numpy
   engine plateaued.
2. **>= 1.5x thread scaling at 4 workers** on the native bulk pass
   (skipped below 4 cores) — the first engine for which ``executor=
   "thread"`` beats serial at all.
3. **The interpreted engines don't regress on the thread path**: a csr or
   numpy thread request runs the serial kernel and starts no thread pool
   (the BENCH_PR5 matrix regression guard).

Timings are steady-state by construction: :class:`NativeEngine` pre-warms
the kernels when it is built (satellite of the same PR), so no measured
row ever includes JIT compilation — the artifact records the one-off
construction cost separately.

Every row lands in ``BENCH_PR9.json``.  When Numba is absent the module
skips but still writes a skip-marker entry, so the artifact always exists
and CI legs can tell "not run here" from "silently lost".

Set ``KH_CORE_BENCH_QUICK=1`` (the CI smoke mode) to shrink the graphs.
"""

from __future__ import annotations

import os
import time

import pytest

from bench_utils import write_bench_json

from repro.core.backends import native_available, resolve_engine

#: The benchmark artifact (uploaded by CI; see bench_utils for the dir).
ARTIFACT = "BENCH_PR9.json"


def _numba_compiled() -> bool:
    try:
        from repro.traversal.native_bfs import NUMBA_AVAILABLE

        return NUMBA_AVAILABLE
    except ImportError:  # numpy itself absent
        return False


if not (native_available() and _numba_compiled()):
    # Interpreted-fallback timings would be meaningless; mark and bow out.
    write_bench_json(ARTIFACT, {"native": {
        "skipped": True,
        "reason": "numba unavailable or native engine disabled",
    }})
    pytest.skip("native engine unavailable (numba missing or disabled)",
                allow_module_level=True)

from repro.core.backends import CSREngine, NativeEngine  # noqa: E402
from repro.graph.generators import (  # noqa: E402
    barabasi_albert_graph,
    grid_graph,
    watts_strogatz_graph,
)

QUICK = os.environ.get("KH_CORE_BENCH_QUICK", "") not in ("", "0")

#: Required native-over-interpreted-CSR speedup on the frontier battery.
REQUIRED_SPEEDUP = 10.0

#: Required native thread-over-serial scaling at 4 workers.
REQUIRED_THREAD_SCALING = 1.5

#: The frontier workloads where the numpy engine plateaued: (name, builder,
#: h).  Same families and sizes as BENCH_PR5's visibility rows, so the two
#: artifacts read as one trajectory.
FRONTIER_BATTERY = [
    ("WS ring", lambda: watts_strogatz_graph(3000 if QUICK else 12000, 8,
                                             0.05, seed=0), 2),
    ("grid h3", lambda: grid_graph(*(2 * (40 if QUICK else 110,))), 3),
]


def _xdist_guard():
    if os.environ.get("PYTEST_XDIST_WORKER"):
        pytest.skip("wall-clock speedups are meaningless under xdist")


def _interleaved_bulk(engines, h, rounds=3, executor="serial", workers=1):
    """Best-of-``rounds`` bulk-pass seconds per engine, rounds interleaved.

    Interleaving means slow drift on a shared runner hits every engine
    alike instead of biasing whichever ran last.
    """
    best = [float("inf")] * len(engines)
    for _ in range(rounds):
        for i, engine in enumerate(engines):
            start = time.perf_counter()
            engine.bulk_h_degrees(h, executor=executor, num_workers=workers)
            best[i] = min(best[i], time.perf_counter() - start)
    return best


def _interleaved_cells(engine, h, cells, rounds=3):
    """Best-of-``rounds`` seconds per (executor, workers) cell, interleaved."""
    best = [float("inf")] * len(cells)
    for _ in range(rounds):
        for i, (executor, workers) in enumerate(cells):
            start = time.perf_counter()
            engine.bulk_h_degrees(h, executor=executor, num_workers=workers)
            best[i] = min(best[i], time.perf_counter() - start)
    return best


@pytest.mark.parametrize("name,builder,h", FRONTIER_BATTERY,
                         ids=[name for name, _, _ in FRONTIER_BATTERY])
def test_native_speedup_on_frontier_workloads(name, builder, h):
    """Frontier bulk pass: native >= 10x over the serial CSR engine."""
    _xdist_guard()
    graph = builder()
    csr = CSREngine(graph)
    compiled = NativeEngine(graph)  # construction pre-warms the kernels
    expected = csr.bulk_h_degrees(h, executor="serial")
    got = compiled.bulk_h_degrees(h, executor="serial")
    assert got == expected  # identical h-degrees, not just close
    csr_seconds, native_seconds = _interleaved_bulk([csr, compiled], h)
    speedup = (csr_seconds / native_seconds if native_seconds
               else float("inf"))
    print(f"\n{name}: |V|={graph.num_vertices} |E|={graph.num_edges} h={h} "
          f"csr={csr_seconds:.3f}s native={native_seconds:.4f}s "
          f"speedup={speedup:.2f}x (required: {REQUIRED_SPEEDUP}x)")
    write_bench_json(ARTIFACT, {f"frontier/{name}": {
        "vertices": graph.num_vertices,
        "edges": graph.num_edges,
        "h": h,
        "csr_seconds": round(csr_seconds, 5),
        "native_seconds": round(native_seconds, 5),
        "speedup": round(speedup, 2),
        "required": REQUIRED_SPEEDUP,
    }})
    assert speedup >= REQUIRED_SPEEDUP, (
        f"native frontier speedup degraded to {speedup:.2f}x on {name} "
        f"(required >= {REQUIRED_SPEEDUP}x)"
    )


def test_native_thread_scaling_at_four_workers():
    """The GIL-free bulk pass: 4 thread workers >= 1.5x over serial."""
    _xdist_guard()
    cores = os.cpu_count() or 1
    if cores < 4:
        pytest.skip(f"thread scaling needs >= 4 cores (have {cores})")
    graph = watts_strogatz_graph(6000 if QUICK else 20000, 10, 0.05, seed=1)
    h = 2
    compiled = NativeEngine(graph)
    serial = compiled.bulk_h_degrees(h, executor="serial")
    threaded = compiled.bulk_h_degrees(h, executor="thread", num_workers=4)
    assert threaded == serial  # concurrency must not change one degree
    serial_seconds, thread_seconds = _interleaved_cells(
        compiled, h, [("serial", 1), ("thread", 4)], rounds=4)
    scaling = (serial_seconds / thread_seconds if thread_seconds
               else float("inf"))
    print(f"\nWS thread scaling: |V|={graph.num_vertices} h={h} "
          f"serial={serial_seconds:.3f}s thread(4)={thread_seconds:.3f}s "
          f"scaling={scaling:.2f}x (required: {REQUIRED_THREAD_SCALING}x)")
    write_bench_json(ARTIFACT, {"thread_scaling/WS": {
        "vertices": graph.num_vertices,
        "h": h,
        "workers": 4,
        "cores": cores,
        "serial_seconds": round(serial_seconds, 5),
        "thread_seconds": round(thread_seconds, 5),
        "scaling": round(scaling, 2),
        "required": REQUIRED_THREAD_SCALING,
    }})
    assert scaling >= REQUIRED_THREAD_SCALING, (
        f"native thread scaling degraded to {scaling:.2f}x at 4 workers "
        f"(required >= {REQUIRED_THREAD_SCALING}x)"
    )


@pytest.mark.parametrize("backend", ["csr", "numpy"])
def test_interpreted_thread_path_no_worse_than_serial(backend, monkeypatch):
    """BENCH_PR5 matrix guard: a thread request on a GIL-bound engine runs
    the serial kernel (no thread pool), so it cannot lose to serial."""
    graph = barabasi_albert_graph(1500 if QUICK else 4000, 3, seed=0)
    engine = resolve_engine(graph, backend)
    h = 2
    expected = engine.bulk_h_degrees(h, executor="serial")

    def no_threads(*args, **kwargs):
        raise AssertionError(f"the {backend} engine started a thread pool")

    monkeypatch.setattr("repro.core.parallel.ThreadPoolExecutor", no_threads)
    assert (engine.bulk_h_degrees(h, executor="thread", num_workers=2)
            == expected)


def test_engine_executor_matrix_artifact():
    """Record the four-engine x executor grid (identical results, timed)."""
    graph = barabasi_albert_graph(1500 if QUICK else 4000, 3, seed=0)
    h = 2
    reference = None
    matrix = {}
    start = time.perf_counter()
    warm_engine = NativeEngine(graph)
    construction_seconds = time.perf_counter() - start
    warm_engine.close()
    for backend in ("dict", "csr", "numpy", "native"):
        engine = resolve_engine(graph, backend)
        try:
            for executor, workers in (("serial", 1), ("thread", 2),
                                      ("thread", 4)):
                start = time.perf_counter()
                degrees = engine.bulk_h_degrees(h, executor=executor,
                                                num_workers=workers)
                seconds = time.perf_counter() - start
                labeled = engine.to_labels(degrees)
                if reference is None:
                    reference = labeled
                assert labeled == reference, (backend, executor, workers)
                matrix[f"{backend}/{executor}-{workers}"] = round(seconds, 5)
        finally:
            close = getattr(engine, "close", None)
            if close is not None:
                close()
    path = write_bench_json(ARTIFACT, {"matrix": {
        "vertices": graph.num_vertices,
        "h": h,
        "cores": os.cpu_count() or 1,
        "warm_construction_seconds": round(construction_seconds, 5),
        "seconds": matrix,
    }})
    assert os.path.exists(path)
