"""The NVML circuit breaker, wired end to end by ``build_deployment``.

No shipped chaos scenario trips it: ``nvml-flaky`` flakes a probe once
or twice per event and ``DEFAULT_NVML_RETRY`` absorbs that.  Here enough
``NVML_ERROR_TIMEOUT``s exhaust the retries of ``FAILURE_THRESHOLD``
mapper probes in a row, so the deployment's own wiring (``on_breaker``)
has to carry the trip into the overload metrics and the health event
log, and the mapper has to keep jobs flowing with the GPU disabled.

Each job probes NVML twice, and both probes spend a whole retry budget
on a failure: the dynamic destination rule's own probe, which the
breaker does not guard, and the mapper's, which feeds the breaker.
"""

from repro.core.orchestrator import build_deployment
from repro.core.retry import DEFAULT_NVML_RETRY
from repro.galaxy.job import JobState
from repro.gpusim.errors import NVMLError
from repro.resilience.breaker import FAILURE_THRESHOLD, BreakerState
from repro.tools.executors import register_paper_tools

#: Injected errors that exhaust both probes of ``FAILURE_THRESHOLD`` jobs.
ERRORS = FAILURE_THRESHOLD * 2 * DEFAULT_NVML_RETRY.max_attempts


def _tripped_deployment():
    deployment = build_deployment(resilient=True, overload=True)
    register_paper_tools(deployment.app)
    deployment.gpu_host.faults.inject_nvml_error(
        NVMLError.NVML_ERROR_TIMEOUT, count=ERRORS
    )
    jobs = [
        deployment.run_tool("racon", {"workload": "unit"})
        for _ in range(FAILURE_THRESHOLD)
    ]
    return deployment, jobs


def test_exhausted_retries_open_the_breaker():
    deployment, _ = _tripped_deployment()
    breaker = deployment.mapper.breaker
    assert breaker.state is BreakerState.OPEN
    assert [(old, new) for _, old, new in breaker.transitions] == [
        (BreakerState.CLOSED, BreakerState.OPEN)
    ]


def test_the_trip_is_counted_once():
    deployment, _ = _tripped_deployment()
    assert deployment.app.metrics_registry.value(
        "gyan_overload_breaker_transitions_total",
        breaker="nvml", to_state="open",
    ) == 1


def test_the_trip_is_a_health_event():
    deployment, _ = _tripped_deployment()
    events = [
        (event.device_id, event.kind)
        for event in deployment.app.health_tracker.events
    ]
    assert events.count(("breaker:nvml", "breaker_open")) == 1


def test_jobs_take_the_arm_the_mapper_degrades_to():
    deployment, jobs = _tripped_deployment()
    # Every probe failed: the rule sent each job to the CPU destination.
    assert [job.metrics.destination_id for job in jobs] == [
        "local_cpu"
    ] * FAILURE_THRESHOLD
    # The errors are spent, so the rule's unguarded probe now finds the
    # GPUs; the open breaker fails the mapper's probe fast
    # (BreakerOpenError), which it degrades like an exhausted retry.
    jobs.append(deployment.run_tool("racon", {"workload": "unit"}))
    assert not deployment.gpu_host.faults.pending_nvml_errors
    assert jobs[-1].metrics.destination_id == "local_gpu"
    assert all(job.state is JobState.OK for job in jobs)
    assert all(job.metrics.gpu_ids == [] for job in jobs)
    assert [record.gpu_enabled for record in deployment.mapper.history] == [
        False
    ] * len(jobs)
