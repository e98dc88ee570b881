"""Tests for the execution runtime: context lifecycle, ownership, shims.

Covers the three contracts the runtime layer owns:

* **Engine ownership** — a context closes engines it resolved from a name,
  and *never* closes a caller-supplied engine or a caller-supplied context
  (the regression the old copy-pasted ``owned = isinstance(backend, str)``
  pattern existed to enforce, now implemented exactly once).
* **One worker-count spelling** — every entry point accepts ``num_workers``
  (CLI ``--workers``); the removed ``num_threads`` keyword and ``--threads``
  flag are rejected outright.
* **Context plumbing** — the context's backend/executor/worker/peel choices
  reach the algorithms, and the context validates its inputs.
"""

from __future__ import annotations

import inspect
import warnings

import pytest

from repro.core import (
    CSREngine,
    DictEngine,
    compute_h_degrees,
    core_decomposition,
    core_decomposition_with_report,
    h_bz,
    h_lb,
    h_lb_ub,
    improve_lb,
    upper_bound,
)
from repro.cli import main
from repro.core.backends import resolved_backend_name
from repro.dynamic import DynamicKHCore
from repro.errors import ParameterError
from repro.graph.generators import (
    barabasi_albert_graph,
    cycle_graph,
    relaxed_caveman_graph,
)
from repro.instrumentation import Counters
from repro.runtime import ExecutionContext, scoped_context
from repro.serve import CoreService


class RecordingCSREngine(CSREngine):
    """CSR engine that counts ``close()`` calls (ownership regression)."""

    __slots__ = ("close_calls",)

    def __init__(self, graph):
        super().__init__(graph)
        self.close_calls = 0

    def close(self):
        self.close_calls += 1
        super().close()


@pytest.fixture
def graph():
    return relaxed_caveman_graph(5, 5, 0.2, seed=0)


class TestExecutionContext:
    def test_resolves_backend_name(self, graph):
        with ExecutionContext(graph, backend="csr") as ctx:
            assert isinstance(ctx.engine, CSREngine)
            assert ctx.backend_name == "csr"
            assert ctx.owns_engine
        assert ctx.closed

    def test_auto_backend_picks_csr_for_integer_graph(self, graph):
        with ExecutionContext(graph, backend="auto") as ctx:
            assert ctx.backend_name == "csr"

    def test_close_is_idempotent(self, graph):
        ctx = ExecutionContext(graph, backend="dict")
        ctx.close()
        ctx.close()
        assert ctx.closed

    def test_validates_executor_and_peel(self, graph):
        with pytest.raises(ParameterError):
            ExecutionContext(graph, executor="gpu")
        with pytest.raises(ParameterError):
            ExecutionContext(graph, peel="linkedlist")

    def test_array_peel_requires_csr_engine(self, graph):
        with ExecutionContext(graph, backend="dict", peel="array") as ctx:
            with pytest.raises(ParameterError):
                ctx.make_peel_state()

    def test_bulk_h_degrees_matches_reference(self, graph):
        expected = compute_h_degrees(graph, 2)
        with ExecutionContext(graph, backend="csr") as ctx:
            got = ctx.engine.to_labels(ctx.bulk_h_degrees(2))
        assert got == expected

    def test_repr_mentions_state(self, graph):
        ctx = ExecutionContext(graph, backend="dict", executor="serial")
        assert "serial" in repr(ctx) and "open" in repr(ctx)
        ctx.close()
        assert "closed" in repr(ctx)


class TestEngineOwnership:
    """A caller-supplied engine (or context) is never closed by callees."""

    def test_context_closes_owned_engine(self, graph, monkeypatch):
        calls = []
        original = CSREngine.close
        monkeypatch.setattr(CSREngine, "close",
                            lambda self: (calls.append(self),
                                          original(self)) and None)
        with ExecutionContext(graph, backend="csr"):
            pass
        assert len(calls) == 1

    def test_context_never_closes_supplied_engine(self, graph):
        engine = RecordingCSREngine(graph)
        with ExecutionContext(graph, backend=engine) as ctx:
            assert ctx.engine is engine
            assert not ctx.owns_engine
        assert engine.close_calls == 0

    @pytest.mark.parametrize("algorithm", [h_bz, h_lb, h_lb_ub])
    def test_algorithms_never_close_supplied_engine(self, graph, algorithm):
        engine = RecordingCSREngine(graph)
        algorithm(graph, 2, backend=engine)
        assert engine.close_calls == 0

    def test_facade_never_closes_supplied_engine(self, graph):
        engine = RecordingCSREngine(graph)
        core_decomposition(graph, 2, algorithm="h-LB+UB", backend=engine)
        assert engine.close_calls == 0

    def test_algorithms_never_close_supplied_context(self, graph):
        engine = RecordingCSREngine(graph)
        with ExecutionContext(graph, backend=engine) as ctx:
            h_lb_ub(graph, 2, context=ctx)
            h_bz(graph, 2, context=ctx)
            core_decomposition(graph, 2, context=ctx)
            assert not ctx.closed
        assert engine.close_calls == 0

    def test_facade_closes_engines_it_resolves(self, graph, monkeypatch):
        calls = []
        original = CSREngine.close
        monkeypatch.setattr(CSREngine, "close",
                            lambda self: (calls.append(self),
                                          original(self)) and None)
        core_decomposition(graph, 2, algorithm="h-LB+UB", backend="csr")
        assert len(calls) >= 1

    def test_scoped_context_passthrough_and_validation(self, graph):
        other = cycle_graph(4)
        with ExecutionContext(graph, backend="dict") as ctx:
            with scoped_context(graph, ctx) as inner:
                assert inner is ctx
            with pytest.raises(ParameterError):
                with scoped_context(other, ctx):
                    pass
        with pytest.raises(ParameterError):
            with scoped_context(graph, ctx):  # closed context
                pass

    def test_context_mismatched_graph_rejected_by_algorithms(self, graph):
        with ExecutionContext(graph, backend="dict") as ctx:
            with pytest.raises(ParameterError):
                h_lb(cycle_graph(5), 2, context=ctx)


class TestContextResults:
    """The context API produces the same decompositions as the kwargs API."""

    @pytest.mark.parametrize("peel", ["auto", "dict", "array"])
    def test_peel_layouts_agree_end_to_end(self, graph, peel):
        reference = core_decomposition(graph, 2, algorithm="h-LB",
                                       backend="dict").core_index
        with ExecutionContext(graph, backend="csr", peel=peel) as ctx:
            assert h_lb(graph, 2, context=ctx).core_index == reference

    def test_context_counters_are_used(self, graph):
        counters = Counters()
        with ExecutionContext(graph, backend="csr",
                              counters=counters) as ctx:
            h_lb(graph, 2, context=ctx)
        assert counters.bfs_calls > 0

    def test_report_records_context_configuration(self, graph):
        with ExecutionContext(graph, backend="csr", executor="serial",
                              num_workers=2) as ctx:
            report = core_decomposition_with_report(graph, 2,
                                                    algorithm="h-LB+UB",
                                                    context=ctx)
        assert report.params["backend"] == "csr"
        assert report.params["executor"] == "serial"
        assert report.params["num_workers"] == 2

    def test_report_records_resolved_backend(self):
        # Large enough for "auto" to step past the dict engine: the report
        # must name the engine that ran, not the "auto" request.
        graph = barabasi_albert_graph(600, 3, seed=1)
        report = core_decomposition_with_report(graph, 2)
        assert report.params["backend"] == resolved_backend_name(graph,
                                                                 "auto")
        assert report.params["backend"] != "auto"
        assert report.params["executor"] == "serial"
        assert report.params["num_workers"] == 1


class TestWorkerShim:
    @pytest.mark.parametrize("call", [
        lambda g: h_bz(g, 2, num_threads=2),
        lambda g: h_lb(g, 2, num_threads=2),
        lambda g: h_lb_ub(g, 2, num_threads=2),
        lambda g: core_decomposition(g, 2, algorithm="h-BZ", num_threads=2),
        lambda g: compute_h_degrees(g, 2, num_threads=2),
        lambda g: upper_bound(g, 2, num_threads=2),
        lambda g: improve_lb(g, 2, set(g.vertices()), 1, num_threads=2),
        lambda g: DictEngine(g).bulk_h_degrees(2, num_threads=2),
        lambda g: CSREngine(g).bulk_h_degrees(2, num_threads=2),
        lambda g: DynamicKHCore(g.copy(), h=2, num_threads=2),
        lambda g: ExecutionContext(g, num_threads=2).close(),
    ], ids=["h_bz", "h_lb", "h_lb_ub", "facade", "compute_h_degrees",
            "upper_bound", "improve_lb", "dict_engine", "csr_engine",
            "dynamic", "context"])
    def test_every_entry_point_rejects_num_threads(self, graph, call):
        with pytest.raises(TypeError, match="num_threads"):
            call(graph)

    @pytest.mark.parametrize("workers", [0, -2])
    @pytest.mark.parametrize("call", [
        lambda g, n: h_bz(g, 2, num_workers=n),
        lambda g, n: h_lb(g, 2, num_workers=n),
        lambda g, n: h_lb_ub(g, 2, num_workers=n),
        lambda g, n: core_decomposition(g, 2, num_workers=n),
        lambda g, n: core_decomposition_with_report(g, 2, num_workers=n),
        lambda g, n: compute_h_degrees(g, 2, num_workers=n),
        lambda g, n: DynamicKHCore(g.copy(), h=2, num_workers=n),
        lambda g, n: CoreService(g.copy(), h=2, num_workers=n),
        lambda g, n: ExecutionContext(g, executor="process", num_workers=n),
    ], ids=["h_bz", "h_lb", "h_lb_ub", "facade", "with_report",
            "compute_h_degrees", "dynamic", "service", "context"])
    def test_every_entry_point_rejects_worker_count_below_one(
            self, graph, call, workers):
        with pytest.raises(ParameterError,
                           match="num_workers must be a positive integer"):
            call(graph, workers)

    @pytest.mark.parametrize("owner", [core_decomposition, ExecutionContext,
                                       DynamicKHCore, CoreService],
                             ids=lambda owner: owner.__name__)
    def test_default_executor_is_serial(self, owner):
        parameter = inspect.signature(owner).parameters["executor"]
        assert parameter.default == "serial"

    def test_num_workers_spelling_is_silent(self, graph):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            h_lb_ub(graph, 2, num_workers=2)
            core_decomposition(graph, 2, num_workers=2)
            compute_h_degrees(graph, 2, num_workers=2)

    def test_cli_threads_flag_is_rejected(self, tmp_path, capsys):
        edges = tmp_path / "g.edges"
        edges.write_text("0 1\n1 2\n2 0\n")
        with pytest.raises(SystemExit) as excinfo:
            main([str(edges), "--h", "2", "--threads", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --threads" in capsys.readouterr().err

    def test_cli_workers_flag_is_silent(self, tmp_path, capsys):
        edges = tmp_path / "g.edges"
        edges.write_text("0 1\n1 2\n2 0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            exit_code = main([str(edges), "--h", "2", "--workers", "2"])
        assert exit_code == 0
