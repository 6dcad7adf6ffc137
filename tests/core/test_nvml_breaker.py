"""The NVML circuit breaker, wired end to end by ``build_deployment``.

No shipped chaos scenario trips it: ``nvml-flaky`` flakes a probe once
or twice per event and ``DEFAULT_NVML_RETRY`` absorbs that.  Here enough
``NVML_ERROR_TIMEOUT``s exhaust the retries of ``FAILURE_THRESHOLD``
probes in a row, so the deployment's own wiring (``on_breaker``) has to
carry the trip into the overload metrics and the health event log, and
the mapper has to keep jobs flowing with the GPU disabled.

There is one probe path: the dynamic destination rule asks the mapper,
so the rule's probe and the launch-time probe both go through the
breaker.  A job probes twice while probes fail (failures are never
cached) and each failed probe spends a whole retry budget, so the first
job feeds the breaker two failures and the second job's rule probe
trips it.  From then on both probes fail fast.
"""

from repro.core.orchestrator import build_deployment
from repro.core.retry import DEFAULT_NVML_RETRY
from repro.galaxy.job import JobState
from repro.gpusim.errors import NVMLError
from repro.resilience.breaker import FAILURE_THRESHOLD, BreakerState
from repro.tools.executors import register_paper_tools

#: Errors the trip draws: one whole retry budget per failed probe.
TRIP = FAILURE_THRESHOLD * DEFAULT_NVML_RETRY.max_attempts
#: Twice that is queued, so the surplus waits behind the open breaker.
ERRORS = 2 * TRIP
#: Jobs run: the ones whose probes trip the breaker, and one more.
JOBS = FAILURE_THRESHOLD + 1


def _tripped_deployment():
    deployment = build_deployment(resilient=True, overload=True)
    register_paper_tools(deployment.app)
    faults = deployment.gpu_host.faults
    faults.inject_nvml_error(NVMLError.NVML_ERROR_TIMEOUT, count=ERRORS)
    jobs, drawn = [], []
    for _ in range(JOBS):
        served = faults.nvml_errors_served
        jobs.append(deployment.run_tool("racon", {"workload": "unit"}))
        drawn.append(faults.nvml_errors_served - served)
    return deployment, jobs, drawn


def test_exhausted_retries_open_the_breaker():
    deployment, _, drawn = _tripped_deployment()
    breaker = deployment.mapper.breaker
    assert breaker.state is BreakerState.OPEN
    assert [(old, new) for _, old, new in breaker.transitions] == [
        (BreakerState.CLOSED, BreakerState.OPEN)
    ]
    # Job 0: rule and launch probe each spend a budget; job 1: the
    # rule's probe is the third failure in a row; later jobs draw none.
    budget = DEFAULT_NVML_RETRY.max_attempts
    assert drawn == [2 * budget, budget] + [0] * (JOBS - 2)
    assert sum(drawn) == TRIP
    assert len(deployment.gpu_host.faults.pending_nvml_errors) == ERRORS - TRIP


def test_the_trip_is_counted_once():
    deployment, _, _ = _tripped_deployment()
    assert deployment.app.metrics_registry.value(
        "gyan_overload_breaker_transitions_total",
        breaker="nvml", to_state="open",
    ) == 1


def test_the_trip_is_a_health_event():
    deployment, _, _ = _tripped_deployment()
    events = [
        (event.device_id, event.kind)
        for event in deployment.app.health_tracker.events
    ]
    assert events.count(("breaker:nvml", "breaker_open")) == 1


def test_jobs_take_the_arm_the_mapper_degrades_to():
    deployment, jobs, _ = _tripped_deployment()
    # The rule asks the mapper, so every job sees the same answer at
    # mapping and at launch: no GPU, the CPU destination, no device ids.
    assert [job.metrics.destination_id for job in jobs] == ["local_cpu"] * JOBS
    assert all(job.state is JobState.OK for job in jobs)
    assert all(job.metrics.gpu_ids == [] for job in jobs)
    assert [record.gpu_enabled for record in deployment.mapper.history] == [
        False
    ] * JOBS


def test_an_open_breaker_makes_the_rule_fail_fast():
    deployment, _, _ = _tripped_deployment()
    app = deployment.app
    faults = deployment.gpu_host.faults
    assert deployment.mapper.breaker.state is BreakerState.OPEN
    rule = deployment.job_config.rules.get("gpu_destination")
    job = app.submit("racon", {"workload": "unit"})
    served, now = faults.nvml_errors_served, deployment.clock.now
    assert rule(job, app) == "local_cpu"
    assert app.environment["GALAXY_GPU_ENABLED"] == "false"
    # No error drawn, no backoff slept.
    assert faults.nvml_errors_served == served
    assert deployment.clock.now == now
