"""Integration: the JobSpan lifecycle threaded through a deployment."""

from __future__ import annotations

import pytest

from repro.cluster.node import ComputeNode
from repro.core.orchestrator import build_deployment
from repro.gpusim.errors import NVMLError
from repro.gpusim.faults import FaultEvent, FaultKind, InjectionPlan
from repro.observability.tracing import NULL_TRACER, Tracer
from repro.tools.executors import register_paper_tools
from repro.workloads.chaos import run_chaos

#: The killer plan of the chaos acceptance tests: device 1 dies under a
#: running job, then NVML flakes during the next mapping query.
RESUBMIT_PLAN = InjectionPlan(
    name="die-under-running-job",
    seed=0,
    events=(
        FaultEvent(time=5.0, kind=FaultKind.DEVICE_LOST, device=1, xid=79),
        FaultEvent(time=6.0, kind=FaultKind.NVML_FLAKE,
                   nvml_code=NVMLError.NVML_ERROR_UNKNOWN),
    ),
)


def _job_spans(tracer, job_id):
    """A job's spans, in recording order."""
    return [s for s in tracer.spans if s.job_id == job_id]


def traced_deployment(**kwargs):
    node = ComputeNode.paper_testbed()
    tracer = Tracer(node.clock)
    deployment = build_deployment(node=node, tracer=tracer, **kwargs)
    register_paper_tools(deployment.app)
    return deployment, tracer


class TestLifecycleSpans:
    @pytest.fixture(scope="class")
    def traced(self):
        deployment, tracer = traced_deployment()
        job = deployment.run_tool("racon", {"workload": "unit"})
        return deployment, tracer, job

    def test_full_phase_sequence_recorded(self, traced):
        _, tracer, job = traced
        names = [s.name for s in _job_spans(tracer, job.job_id)]
        assert names == ["job", "map", "queue", "launch", "map.env", "run"]

    def test_root_span_carries_tool_and_state(self, traced):
        _, tracer, job = traced
        root = _job_spans(tracer, job.job_id)[0]
        assert root.attributes["tool"] == "racon"
        assert root.attributes["state"] == "ok"
        assert root.end is not None

    def test_mapper_decision_attributes(self, traced):
        _, tracer, job = traced
        (env_span,) = [
            s for s in _job_spans(tracer, job.job_id) if s.name == "map.env"
        ]
        assert env_span.attributes["strategy"] == "pid"
        assert env_span.attributes["outcome"] == "gpu"
        assert env_span.attributes["snapshot_cache_hit"] is False
        assert env_span.attributes["gpu_enabled"] is True

    def test_map_span_records_destination(self, traced):
        _, tracer, job = traced
        (map_span,) = [
            s for s in _job_spans(tracer, job.job_id) if s.name == "map"
        ]
        assert map_span.attributes["destination"] == "local_gpu"

    def test_run_span_bounds_the_tool_body(self, traced):
        _, tracer, job = traced
        (run_span,) = [
            s for s in _job_spans(tracer, job.job_id) if s.name == "run"
        ]
        assert run_span.attributes["state"] == "ok"
        assert run_span.end - run_span.start == pytest.approx(
            job.metrics.end_time - job.metrics.start_time
        )

    def test_registry_counters_updated(self, traced):
        deployment, _, _ = traced
        registry = deployment.app.metrics_registry
        assert registry.value("gyan_jobs_submitted_total", tool="racon") == 1
        assert registry.value(
            "gyan_jobs_finished_total", runner="local", state="ok"
        ) == 1
        assert registry.value(
            "gyan_mapper_decisions_total", strategy="pid", outcome="gpu"
        ) == 1


class TestResubmitTracing:
    @pytest.fixture(scope="class")
    def result(self):
        return run_chaos(RESUBMIT_PLAN, jobs=8, resilient=True, trace=True)

    def test_resubmit_instant_recorded(self, result):
        resubmits = [e for e in result.tracer.events if e.name == "resubmit"]
        assert resubmits, "the killed job must emit a resubmit event"
        for event in resubmits:
            assert event.attributes["hop"] >= 1
            assert "fallback" in event.attributes["destination"]

    def test_retry_job_root_span_links_back(self, result):
        resubmit = next(
            e for e in result.tracer.events if e.name == "resubmit"
        )
        retry_id = resubmit.attributes["retry_job"]
        root = _job_spans(result.tracer, retry_id)[0]
        assert root.name == "job"
        assert root.attributes["resubmit_of"] == resubmit.job_id
        assert root.attributes["state"] == "ok"

    def test_resubmit_counter_matches_events(self, result):
        resubmits = [e for e in result.tracer.events if e.name == "resubmit"]
        assert result.registry.value("gyan_resubmits_total") == len(resubmits)


class TestZeroOverheadDefaults:
    def test_untraced_deployment_holds_null_tracer(self):
        deployment = build_deployment()
        assert deployment.app.tracer is NULL_TRACER
        assert deployment.mapper.tracer is NULL_TRACER
        assert deployment.tracer is None

    def test_untraced_run_records_nothing(self):
        deployment = build_deployment()
        register_paper_tools(deployment.app)
        job = deployment.run_tool("racon", {"workload": "unit"})
        assert job.state.value == "ok"
        assert deployment.app.tracer.spans == ()

    def test_metrics_still_collected_without_tracing(self):
        deployment = build_deployment()
        register_paper_tools(deployment.app)
        deployment.run_tool("racon", {"workload": "unit"})
        assert deployment.app.metrics_registry.value(
            "gyan_jobs_submitted_total", tool="racon"
        ) == 1


class TestLegacyCounterViews:
    def test_mapper_counters_are_registry_backed_ints(self):
        deployment = build_deployment()
        register_paper_tools(deployment.app)
        deployment.run_tool("racon", {"workload": "unit"})
        mapper = deployment.mapper
        assert isinstance(mapper.snapshot_probes, int)
        assert mapper.snapshot_probes == deployment.app.metrics_registry.value(
            "gyan_mapper_snapshot_probes_total"
        )
        assert mapper.degraded_queries == 0
        assert mapper.snapshot_cache_hits == 0

    def test_legacy_views_are_read_only(self):
        deployment = build_deployment()
        with pytest.raises(AttributeError):
            deployment.mapper.degraded_queries = 5
        with pytest.raises(AttributeError):
            deployment.local_runner.requeues = 5

    def test_runner_requeues_view(self):
        deployment = build_deployment()
        assert deployment.local_runner.requeues == 0
        deployment.local_runner._record_requeue()
        assert deployment.local_runner.requeues == 1
