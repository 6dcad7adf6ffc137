"""OverloadController: admission accounting, deadlines, typed shedding."""

import pytest

from repro.galaxy.job_conf import Destination
from repro.galaxy.tool_xml import parse_tool_xml
from repro.galaxy.job import GalaxyJob, JobState
from repro.gpusim.clock import VirtualClock
from repro.observability.metrics import MetricsRegistry
from repro.resilience.brownout import BrownoutController
from repro.resilience.overload import (
    OverloadController,
    destination_deadline_s,
    destination_queue_limit,
    destination_runtime_budget_s,
)
from repro.resilience.shedding import RejectedBusy, ShedReason

_TOOL_XML = '<tool id="seqstats"><command>seqstats</command></tool>'


def make_destination(dest_id="gpu", **params):
    return Destination(
        destination_id=dest_id,
        runner="local",
        params={k: str(v) for k, v in params.items()},
    )


def make_job(job_id):
    job = GalaxyJob(tool=parse_tool_xml(_TOOL_XML))
    job.job_id = job_id
    return job


@pytest.fixture
def clock():
    return VirtualClock()


@pytest.fixture
def controller(clock):
    return OverloadController(clock, MetricsRegistry(), BrownoutController())


class TestParamParsing:
    def test_queue_limit(self):
        assert destination_queue_limit(make_destination(max_queue_depth=4)) == 4
        assert destination_queue_limit(make_destination()) is None
        assert destination_queue_limit(make_destination(max_queue_depth="no")) is None
        assert destination_queue_limit(make_destination(max_queue_depth=0)) is None

    def test_deadline_and_budget(self):
        dest = make_destination(deadline_s=120, runtime_budget_s=600)
        assert destination_deadline_s(dest) == pytest.approx(120.0)
        assert destination_runtime_budget_s(dest) == pytest.approx(600.0)
        assert destination_deadline_s(make_destination()) is None


class TestAdmission:
    def test_bounded_destination_rejects_at_limit(self, controller):
        dest = make_destination(max_queue_depth=2)
        controller.admit(make_job(1), dest)
        controller.admit(make_job(2), dest)
        with pytest.raises(RejectedBusy) as exc_info:
            controller.admit(make_job(3), dest)
        assert exc_info.value.reason is ShedReason.QUEUE_FULL
        assert exc_info.value.depth == 2 and exc_info.value.limit == 2

    def test_unbounded_destination_never_rejects(self, controller):
        dest = make_destination()
        for i in range(100):
            controller.admit(make_job(i), dest)
        assert controller.depth("gpu") == 100

    def test_readmission_to_same_destination_is_noop(self, controller):
        dest = make_destination(max_queue_depth=1)
        job = make_job(1)
        controller.admit(job, dest)
        controller.admit(job, dest)  # launch retry: not double-counted
        assert controller.depth("gpu") == 1

    def test_redirect_releases_the_old_slot(self, controller):
        gpu = make_destination("gpu", max_queue_depth=1)
        cpu = make_destination("cpu", max_queue_depth=8)
        job = make_job(1)
        controller.admit(job, gpu)
        controller.admit(job, cpu)
        assert controller.depth("gpu") == 0
        assert controller.depth("cpu") == 1
        assert controller.admitted_destination(job) == "cpu"

    def test_release_is_idempotent(self, controller):
        dest = make_destination(max_queue_depth=1)
        job = make_job(1)
        controller.admit(job, dest)
        controller.release(job)
        controller.release(job)
        assert controller.depth("gpu") == 0
        controller.admit(make_job(2), dest)  # the slot really freed

    def test_saturation_is_worst_bounded_ratio(self, controller):
        narrow = make_destination("narrow", max_queue_depth=2)
        wide = make_destination("wide", max_queue_depth=10)
        controller.admit(make_job(1), narrow)
        controller.admit(make_job(2), wide)
        assert controller.saturation() == pytest.approx(0.5)

    def test_peak_inflight_tracked(self, controller):
        dest = make_destination(max_queue_depth=4)
        jobs = [make_job(i) for i in range(3)]
        for job in jobs:
            controller.admit(job, dest)
        for job in jobs:
            controller.release(job)
        assert controller.peak_inflight == {"gpu": 3}


class TestDeadlines:
    def test_destination_deadline_counts_from_submission(self, controller):
        dest = make_destination(deadline_s=120)
        assert controller.deadline_for(dest, 5.0) == pytest.approx(125.0)

    def test_no_deadline_anywhere(self, controller):
        assert controller.deadline_for(make_destination(), 5.0) is None

    def test_expired_uses_the_virtual_clock(self, controller, clock):
        job = make_job(1)
        job.metrics.deadline = 10.0
        assert not controller.expired(job)
        clock.advance(10.0)
        assert not controller.expired(job)  # strict: exactly-at is fine
        clock.advance(0.001)
        assert controller.expired(job)

    def test_jobs_without_deadline_never_expire(self, controller, clock):
        clock.advance(1e9)
        assert not controller.expired(make_job(1))


class TestShedding:
    def test_shed_is_typed_and_terminal(self, controller, clock):
        clock.advance(3.0)
        job = make_job(7)
        controller.shed(job, ShedReason.DEADLINE_EXPIRED, note="destination gpu")
        assert job.state is JobState.DELETED
        assert job.metrics.shed_reason == "deadline_expired"
        assert "shed: deadline_expired (destination gpu)" in job.stderr
        assert controller.shed_records == [(7, "seqstats", "deadline_expired")]

    def test_shed_releases_the_admission_slot(self, controller):
        dest = make_destination(max_queue_depth=1)
        job = make_job(1)
        controller.admit(job, dest)
        controller.shed(job, ShedReason.QUEUE_FULL)
        assert controller.depth("gpu") == 0

    def test_shed_by_reason_is_sorted(self, controller):
        controller.shed(make_job(1), ShedReason.QUEUE_FULL)
        controller.shed(make_job(2), ShedReason.BROWNOUT_SHED)
        controller.shed(make_job(3), ShedReason.QUEUE_FULL)
        assert controller.shed_by_reason() == {
            "brownout_shed": 1, "queue_full": 2,
        }
        assert list(controller.shed_by_reason()) == [
            "brownout_shed", "queue_full",
        ]
        assert controller.shed_count == 3


class TestMetrics:
    def test_counters_and_gauges_flow(self, clock):
        registry = MetricsRegistry()
        controller = OverloadController(clock, registry, BrownoutController())
        dest = make_destination(max_queue_depth=1)
        controller.admit(make_job(1), dest)
        with pytest.raises(RejectedBusy):
            controller.admit(make_job(2), dest)
        controller.shed(make_job(2), ShedReason.QUEUE_FULL)
        controller.record_redirect()
        controller.record_runtime_kill()
        controller.record_breaker_transition("nvml", 0.0, "open")
        text = registry.render_prometheus()
        assert 'gyan_overload_rejected_busy_total{destination="gpu"} 1' in text
        assert 'gyan_overload_shed_total{reason="queue_full"} 1' in text
        assert "gyan_overload_redirects_total 1" in text
        assert "gyan_overload_runtime_kills_total 1" in text
        assert ('gyan_overload_breaker_transitions_total'
                '{breaker="nvml",to_state="open"} 1') in text
