"""Unit tests for the fault-tolerance layer (:mod:`repro.resilience`).

Covers the deterministic fault-injection harness, the retry/backoff
policies, the resilience report, the supervised executor's fault-free
contract, the crash-safe pool teardown (the PR's satellite fix), and the
``kh-core doctor`` janitors.  The end-to-end chaos battery (faults armed
against whole decompositions) lives in ``test_chaos.py``.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sqlite3
import time

import pytest

from repro.errors import ParameterError
from repro.graph.generators import relaxed_caveman_graph
from repro.instrumentation import Counters
from repro.resilience import FaultPlan, ResilienceReport, RetryPolicy, armed
from repro.resilience import faults
from repro.resilience.janitor import DoctorReport, run_doctor
from repro.resilience.policies import chunk_deadline_from_env
from repro.resilience.supervisor import SupervisedExecutor


# --------------------------------------------------------------------- #
# FaultPlan
# --------------------------------------------------------------------- #
class TestFaultPlan:
    def test_unknown_site_rejected(self):
        with pytest.raises(ParameterError):
            FaultPlan({"worker.meltdown": "*"})

    def test_bad_token_rejected(self):
        with pytest.raises(ParameterError):
            FaultPlan({"worker.kill": "sometimes"})

    def test_bad_spec_entry_rejected(self):
        with pytest.raises(ParameterError):
            FaultPlan.parse("worker.kill")

    def test_parse_round_trips_through_spec(self):
        plan = FaultPlan.parse(
            "worker.kill=once;sqlite.busy=1-3;seed=7;stall=0.1")
        clone = FaultPlan.parse(plan.spec())
        assert clone.schedules == plan.schedules
        assert clone.seed == 7
        assert clone.stall_seconds == pytest.approx(0.1)

    def test_star_fires_every_probe(self):
        plan = FaultPlan({"sqlite.busy": "*"})
        assert all(plan.should_fire("sqlite.busy") for _ in range(5))

    def test_index_and_range_are_one_based(self):
        plan = FaultPlan({"sqlite.busy": "2|4-5"})
        fired = [plan.should_fire("sqlite.busy") for _ in range(6)]
        assert fired == [False, True, False, True, True, False]

    def test_modulo_schedule(self):
        plan = FaultPlan({"sqlite.busy": "%3"})
        fired = [plan.should_fire("sqlite.busy") for _ in range(9)]
        assert fired == [False, False, True] * 3

    def test_once_fires_once_per_scope(self):
        plan = FaultPlan({"worker.kill": "once"})
        assert plan.should_fire("worker.kill", scope="dispatch-1")
        assert not plan.should_fire("worker.kill", scope="dispatch-1")
        assert plan.should_fire("worker.kill", scope="dispatch-2")

    def test_once_without_scope_fires_once_globally(self):
        plan = FaultPlan({"worker.kill": "once"})
        assert plan.should_fire("worker.kill")
        assert not plan.should_fire("worker.kill")

    def test_probability_schedule_is_seeded(self):
        a = FaultPlan({"sqlite.busy": "~0.5"}, seed=11)
        b = FaultPlan({"sqlite.busy": "~0.5"}, seed=11)
        pattern_a = [a.should_fire("sqlite.busy") for _ in range(32)]
        pattern_b = [b.should_fire("sqlite.busy") for _ in range(32)]
        assert pattern_a == pattern_b
        assert any(pattern_a) and not all(pattern_a)

    def test_unscheduled_site_never_fires_and_never_counts(self):
        plan = FaultPlan({"worker.kill": "*"})
        assert not plan.should_fire("sqlite.busy")
        assert plan.probes("sqlite.busy") == 0

    def test_fired_and_probes_tallies(self):
        plan = FaultPlan({"sqlite.busy": "1"})
        plan.should_fire("sqlite.busy")
        plan.should_fire("sqlite.busy")
        assert plan.probes("sqlite.busy") == 2
        assert plan.fired("sqlite.busy") == 1


class TestArming:
    def test_armed_sets_env_and_plan_then_restores(self, monkeypatch):
        monkeypatch.delenv(faults.ENV_VAR, raising=False)
        faults.disarm()
        with armed("worker.kill=once;seed=3") as plan:
            assert faults.active_plan() is plan
            assert faults.ENV_VAR in os.environ
        assert faults.active_plan() is None
        assert faults.ENV_VAR not in os.environ

    def test_env_var_resolved_lazily(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "sqlite.busy=*")
        monkeypatch.setattr(faults, "_active", faults._UNSET)
        plan = faults.active_plan()
        assert plan is not None
        assert plan.should_fire("sqlite.busy")
        faults.disarm()

    def test_should_fire_disarmed_is_false(self):
        faults.disarm()
        assert not faults.should_fire("worker.kill")


# --------------------------------------------------------------------- #
# policies
# --------------------------------------------------------------------- #
class TestRetryPolicy:
    def test_delay_grows_then_caps(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0,
                             backoff_max=0.3, jitter=0.0)
        rng = random.Random(0)
        delays = [policy.delay(attempt, rng) for attempt in (1, 2, 3, 4)]
        assert delays == pytest.approx([0.1, 0.2, 0.3, 0.3])

    def test_jitter_stays_bounded(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_max=0.1, jitter=0.25)
        rng = random.Random(42)
        for attempt in range(1, 10):
            delay = policy.delay(attempt, rng)
            assert 0.1 <= delay <= 0.1 * 1.25

    def test_chunk_deadline_env(self, monkeypatch):
        monkeypatch.delenv("KH_CORE_CHUNK_DEADLINE", raising=False)
        assert chunk_deadline_from_env() is None
        monkeypatch.setenv("KH_CORE_CHUNK_DEADLINE", "2.5")
        assert chunk_deadline_from_env() == pytest.approx(2.5)


class TestResilienceReport:
    def test_note_and_summary(self):
        report = ResilienceReport()
        report.note("retries")
        report.note("wasted_chunks", 3)
        report.record_downgrade("process", "thread")
        assert report.retries == 1
        assert report.wasted_chunks == 3
        assert report.total_events == 5
        assert "downgrades=process->thread" in report.summary()

    def test_as_dict_and_reset(self):
        report = ResilienceReport()
        report.note("pool_rebuilds", 2)
        snapshot = report.as_dict()
        assert snapshot["pool_rebuilds"] == 2
        report.reset()
        assert report.total_events == 0
        assert report.as_dict()["downgrades"] == []


# --------------------------------------------------------------------- #
# supervised executor
# --------------------------------------------------------------------- #
def _h_degrees_serial(graph, h):
    from repro.core.backends import CSREngine

    engine = CSREngine(graph)
    try:
        return engine.bulk_h_degrees(h, executor="serial")
    finally:
        engine.close()


class TestSupervisedExecutor:
    def test_fault_free_dispatch_matches_serial(self):
        faults.disarm()
        graph = relaxed_caveman_graph(4, 8, 0.2, seed=5)
        expected = _h_degrees_serial(graph, 2)
        from repro.core.backends import CSREngine

        engine = CSREngine(graph)
        try:
            with SupervisedExecutor(2) as pool:
                counters = Counters()
                got = pool.bulk_h_degrees(engine.csr, 2,
                                          list(range(engine.num_nodes)),
                                          counters=counters)
            by_label = engine.to_labels(got)
        finally:
            engine.close()
        assert by_label == expected
        # Fault-free runs leave no resilience trace in the counters.
        assert not [k for k in counters.as_dict() if k.startswith("resilience.")]

    def test_empty_targets(self):
        faults.disarm()
        graph = relaxed_caveman_graph(2, 5, 0.1, seed=1)
        from repro.core.backends import CSREngine

        engine = CSREngine(graph)
        try:
            with SupervisedExecutor(2) as pool:
                assert pool.bulk_h_degrees(engine.csr, 2, []) == {}
        finally:
            engine.close()

    def test_deterministic_error_propagates_unretried(self):
        """An application error (bad target index) must surface unchanged
        on the first failure — the raw executor's contract — and close
        the pool, not burn the retry budget on an unwinnable chunk."""
        faults.disarm()
        graph = relaxed_caveman_graph(2, 6, 0.1, seed=3)
        from repro.core.backends import CSREngine

        engine = CSREngine(graph)
        try:
            counters = Counters()
            pool = SupervisedExecutor(2)
            with pytest.raises(IndexError):
                pool.bulk_h_degrees(engine.csr, 2,
                                    [engine.csr.num_vertices + 7],
                                    counters=counters)
            assert pool.closed
            assert "resilience.retries" not in counters.as_dict()
        finally:
            engine.close()


# --------------------------------------------------------------------- #
# satellite fix: crash-safe teardown never leaks the shm block
# --------------------------------------------------------------------- #
class TestCrashSafeTeardown:
    def test_close_after_pool_break_unlinks_segment(self):
        """Regression: close() on a broken pool must still free the block.

        Before the fix, ``pool.shutdown()`` raising (dead worker pipes)
        aborted the teardown before ``shm.unlink`` ran, leaking the
        segment until reboot.
        """
        faults.disarm()
        pytest.importorskip("multiprocessing.shared_memory")
        from multiprocessing import shared_memory

        from repro.core.backends import CSREngine
        from repro.parallel.pool import SharedMemoryExecutor

        graph = relaxed_caveman_graph(3, 8, 0.2, seed=2)
        engine = CSREngine(graph)
        pool = SharedMemoryExecutor(2)
        try:
            # Run one real dispatch so the pool processes exist and the
            # block is exported.
            pool.bulk_h_degrees(engine.csr, 2, list(range(engine.num_nodes)))
            name = pool.shm_name
            assert name is not None
            state = pool._state
            for process in state["pool"]._processes.values():
                os.kill(process.pid, signal.SIGKILL)
            deadline = time.time() + 5.0
            while (any(p.is_alive()
                       for p in state["pool"]._processes.values())
                   and time.time() < deadline):
                time.sleep(0.01)
            pool.close()  # must not raise despite the dead workers
            assert pool.closed
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        finally:
            pool.close()
            engine.close()


# --------------------------------------------------------------------- #
# janitors
# --------------------------------------------------------------------- #
def _dead_pid() -> int:
    """A pid that is certainly not alive (a just-reaped child's)."""
    proc = subprocess.Popen(["true"])
    proc.wait()
    return proc.pid


def _plant_orphan_segment(shm_dir) -> str:
    path = os.path.join(shm_dir, f"khcore-{_dead_pid()}-1-abcd")
    with open(path, "wb") as handle:
        handle.write(b"\x00" * 64)
    _age(path)
    return path


def _plant_building_block(tmp_path) -> str:
    from repro.graph.storage import BlockFileWriter

    path = str(tmp_path / "half.khcsr")
    writer = BlockFileWriter(path, num_vertices=3, adjacency_len=4)
    writer._close_handles()  # simulate a crash mid-build
    _age(path)
    return path


def _plant_building_index(tmp_path) -> str:
    from repro.index.store import CoreIndexStore

    path = str(tmp_path / "half.khidx")
    store = CoreIndexStore.create(path, h_values=(1, 2), source="test")
    store.close()  # crash before the first epoch commit
    _age(path)
    return path


def _age(path: str, seconds: float = 3600.0) -> None:
    stamp = time.time() - seconds
    os.utime(path, (stamp, stamp))


class TestDoctor:
    def test_one_pass_reclaims_all_three_artifact_kinds(self, tmp_path):
        shm_dir = tmp_path / "shm"
        shm_dir.mkdir()
        segment = _plant_orphan_segment(str(shm_dir))
        block = _plant_building_block(tmp_path)
        index = _plant_building_index(tmp_path)

        report = run_doctor([str(tmp_path)], shm_dir=str(shm_dir),
                            min_age=60.0, apply=True)
        assert report.reclaimed_segments == [segment]
        assert report.reclaimed_blocks == [block]
        assert report.reclaimed_indexes == [index]
        assert report.total_reclaimed == 3
        for path in (segment, block, index):
            assert not os.path.exists(path)

    def test_dry_run_reports_but_leaves_everything(self, tmp_path):
        shm_dir = tmp_path / "shm"
        shm_dir.mkdir()
        segment = _plant_orphan_segment(str(shm_dir))
        block = _plant_building_block(tmp_path)
        index = _plant_building_index(tmp_path)

        report = run_doctor([str(tmp_path)], shm_dir=str(shm_dir),
                            min_age=60.0, apply=False)
        assert report.dry_run
        assert report.total_reclaimed == 3
        for path in (segment, block, index):
            assert os.path.exists(path)

    def test_live_owner_and_young_artifacts_are_spared(self, tmp_path):
        shm_dir = tmp_path / "shm"
        shm_dir.mkdir()
        live = os.path.join(str(shm_dir), f"khcore-{os.getpid()}-1-beef")
        with open(live, "wb") as handle:
            handle.write(b"\x00" * 64)
        _age(live)
        young_block = _plant_building_block(tmp_path)
        os.utime(young_block)  # freshly touched: in-progress build

        report = run_doctor([str(tmp_path)], shm_dir=str(shm_dir),
                            min_age=60.0, apply=True)
        assert report.reclaimed_segments == []
        assert report.reclaimed_blocks == []
        assert os.path.exists(live)
        assert os.path.exists(young_block)
        assert any("alive" in entry for entry in report.skipped)

    def test_complete_artifacts_untouched(self, tmp_path):
        from repro.graph.storage import BlockFileWriter
        from repro.index.store import CoreIndexStore

        block = str(tmp_path / "done.khcsr")
        writer = BlockFileWriter(block, num_vertices=1, adjacency_len=0)
        from array import array

        writer.write_indptr(array("q", [0, 0]))
        writer.finalize()
        _age(block)

        report = run_doctor([str(tmp_path)], shm_dir=None,
                            min_age=60.0, apply=True)
        assert report.blocks_checked == 1
        assert report.reclaimed_blocks == []
        assert os.path.exists(block)

    def test_wal_recovery_on_complete_store(self, tmp_path):
        from repro.graph import Graph
        from repro.index import build_index

        path = str(tmp_path / "built.khidx")
        graph = Graph([(0, 1), (1, 2), (2, 0)])
        build_index(graph, path, h_values=(1, 2), source="test")
        # Leave a non-empty WAL on disk, as a crashed writer would: keep
        # the writing connection open across the doctor pass, since a
        # clean last-connection close would checkpoint the WAL away.
        conn = sqlite3.connect(path)
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("INSERT OR REPLACE INTO meta(key, value) "
                         "VALUES ('probe', 'x')")
            conn.commit()
            assert os.path.getsize(path + "-wal") > 0
            _age(path)

            report = run_doctor([str(tmp_path)], shm_dir=None,
                                min_age=60.0, apply=True)
            assert report.recovered_indexes == [path]
            assert report.reclaimed_indexes == []
            assert os.path.getsize(path + "-wal") == 0
        finally:
            conn.close()

    def test_report_as_dict(self):
        report = DoctorReport(dry_run=True)
        payload = report.as_dict()
        assert payload["dry_run"] is True
        assert payload["total_reclaimed"] == 0
