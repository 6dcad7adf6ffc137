"""FIFO scheduler: admission order, slot limits, failure capture."""

import pytest

from repro.cluster.node import ComputeNode
from repro.cluster.scheduler import ClusterScheduler, JobState, SlotRequest


@pytest.fixture
def node():
    return ComputeNode.cpu_only(cpu_slots=4)


@pytest.fixture
def scheduler(node):
    return ClusterScheduler(node)


class TestSubmitAndPump:
    def test_jobs_run_in_fifo_order(self, scheduler):
        order = []
        for name in ("a", "b", "c"):
            scheduler.submit(name, lambda name=name: order.append(name))
        scheduler.pump()
        assert order == ["a", "b", "c"]

    def test_results_and_states(self, scheduler):
        job = scheduler.submit("answer", lambda: 42)
        scheduler.pump()
        assert job.state is JobState.DONE
        assert job.result == 42
        assert job.start_time is not None and job.end_time is not None

    def test_failure_captured_not_raised(self, scheduler, node):
        def boom():
            raise RuntimeError("tool crashed")

        job = scheduler.submit("bad", boom)
        scheduler.pump()
        assert job.state is JobState.FAILED
        assert isinstance(job.error, RuntimeError)
        assert node.cpu_slots_free == 4  # slots released on failure

    def test_head_of_line_blocking(self, scheduler, node):
        node.reserve_cpus(3)  # only 1 slot free
        big = scheduler.submit("big", lambda: None, SlotRequest(cpu_slots=2))
        small = scheduler.submit("small", lambda: None, SlotRequest(cpu_slots=1))
        scheduler.pump()
        # No backfilling: the small job waits behind the blocked head.
        assert big.state is JobState.QUEUED
        assert small.state is JobState.QUEUED

    def test_pump_after_release(self, scheduler, node):
        token = node.reserve_cpus(4)
        job = scheduler.submit("later", lambda: "ok")
        assert scheduler.pump() == []
        node.release_cpus(token)
        completed = scheduler.pump()
        assert [j.name for j in completed] == ["later"]
        assert job.result == "ok"

    def test_max_jobs_limit(self, scheduler):
        for i in range(5):
            scheduler.submit(f"j{i}", lambda: None)
        assert len(scheduler.pump(max_jobs=2)) == 2
        assert len(scheduler.queued()) == 3

    def test_virtual_time_stamps(self, scheduler, node):
        job = scheduler.submit("timed", lambda: node.clock.advance(7.0))
        scheduler.pump()
        assert job.end_time - job.start_time == pytest.approx(7.0)

    def test_stats(self, scheduler):
        scheduler.submit("ok", lambda: None)
        scheduler.submit("bad", lambda: 1 / 0)
        scheduler.pump()
        stats = scheduler.stats()
        assert stats["done"] == 1 and stats["failed"] == 1

    def test_invalid_slot_request(self):
        with pytest.raises(ValueError):
            SlotRequest(cpu_slots=0)

    def test_job_lookup(self, scheduler):
        job = scheduler.submit("x", lambda: None)
        assert scheduler.job(job.job_id) is job


class TestSlotAudit:
    """Regression: the FAILED path must neither leak nor double-free."""

    def test_audit_clean_after_mixed_outcomes(self, scheduler, node):
        def crash():
            raise RuntimeError("tool crashed mid-run")

        scheduler.submit("ok", lambda: None, SlotRequest(cpu_slots=2))
        scheduler.submit("crash", crash, SlotRequest(cpu_slots=3))
        for _ in range(6):
            scheduler.pump()
            assert scheduler.audit_slots() == node.cpu_slots_free
            node.clock.advance(5.0)
        stats = scheduler.stats()
        assert stats["done"] == 1 and stats["failed"] == 1
        assert scheduler.audit_slots() == node.resources.cpu_slots

    def test_audit_detects_a_leaked_reservation(self, scheduler, node):
        job = scheduler.submit("ok", lambda: None)
        scheduler.pump()
        # Simulate the bug the audit exists for: a terminal job still
        # holding a reservation token.
        job._cpu_token = 9999
        with pytest.raises(RuntimeError, match="non-RUNNING"):
            scheduler.audit_slots()

    def test_audit_detects_semaphore_drift(self, scheduler, node):
        scheduler.submit("ok", lambda: None)
        scheduler.pump()
        node.reserve_cpus(2)  # outside reservation the job table can't see
        with pytest.raises(RuntimeError, match="drifted"):
            scheduler.audit_slots()
