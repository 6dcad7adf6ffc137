"""The launch path on real deployments: what happens when a job cannot
start where it was sent.

``BaseJobRunner.queue_job`` sheds a job whose deadline passed before it
reached the runner and fails (never raises on) a transient NVML error a
stock mapper lets through; ``GalaxyApp.place_with_degrade`` walks a full
destination's resubmit arms.  The premise behind that short path: a
resilient mapper never lets an NVML flake out of ``launch`` at all.
"""

import pytest

from repro.core.orchestrator import build_deployment
from repro.core.retry import DEFAULT_NVML_RETRY
from repro.galaxy.job import JobState
from repro.gpusim.errors import NVMLError
from repro.tools.executors import register_paper_tools


def _deployment(**kwargs):
    deployment = build_deployment(**kwargs)
    register_paper_tools(deployment.app)
    deployment.route_tool_to("racon", "local_gpu")
    return deployment


def _finished(deployment, state: str) -> float:
    return deployment.app.metrics_registry.value(
        "gyan_jobs_finished_total", runner="local", state=state
    )


def _redirects(deployment) -> float:
    return deployment.app.metrics_registry.value("gyan_overload_redirects_total")


def _fill(deployment, destination_id: str) -> None:
    """Admit placeholder jobs until ``destination_id`` is at its bound."""
    app = deployment.app
    destination = deployment.job_config.destination(destination_id)
    limit = int(destination.params["max_queue_depth"])
    for _ in range(limit):
        deployment.overload.admit(app.submit("bonito"), destination)


class TestQueueJob:
    def test_expired_deadline_sheds_before_launch(self):
        deployment = _deployment(overload=True)
        destination = deployment.job_config.destination("local_gpu")
        job = deployment.app.submit("racon", {"workload": "unit"})
        job.metrics.deadline = deployment.overload.deadline_for(
            destination, job.metrics.submit_time
        )
        deployment.clock.advance(job.metrics.deadline + 1.0)

        assert deployment.local_runner.queue_job(job, destination) is job
        assert job.state is JobState.DELETED
        assert job.metrics.shed_reason == "deadline_expired"
        assert deployment.overload.shed_by_reason() == {"deadline_expired": 1}
        assert _finished(deployment, "deleted") == 1
        assert deployment.overload.depth("local_gpu") == 0
        assert all(d.is_idle for d in deployment.gpu_host.devices)

    def test_stock_nvml_flake_at_launch_fails_the_job(self):
        deployment = _deployment()
        deployment.gpu_host.faults.inject_nvml_error(
            NVMLError.NVML_ERROR_TIMEOUT
        )
        job = deployment.run_tool("racon", {"workload": "unit"})
        assert job.state is JobState.ERROR
        assert job.metrics.destination_id == "local_gpu"
        assert job.stderr.startswith("launch failed:")
        assert _finished(deployment, "error") == 1
        assert all(d.is_idle for d in deployment.gpu_host.devices)


class TestDegradeWalk:
    def test_full_gpu_destination_redirects_to_its_fallback(self):
        deployment = _deployment(overload=True)
        _fill(deployment, "local_gpu")
        job = deployment.run_tool("racon", {"workload": "unit"})
        assert job.state is JobState.OK
        assert job.metrics.destination_id == "local_cpu_fallback"
        assert job.environment["GALAXY_GPU_ENABLED"] == "false"
        assert _redirects(deployment) == 1
        assert deployment.overload.shed_by_reason() == {}

    def test_every_arm_full_sheds_queue_full(self):
        deployment = _deployment(overload=True)
        _fill(deployment, "local_gpu")
        _fill(deployment, "local_cpu_fallback")
        job = deployment.run_tool("racon", {"workload": "unit"})
        assert job.state is JobState.DELETED
        assert job.metrics.shed_reason == "queue_full"
        assert "all arms full from local_gpu" in job.stderr
        assert _redirects(deployment) == 1
        assert deployment.overload.shed_by_reason() == {"queue_full": 1}


@pytest.mark.parametrize("mode", ["resilient", "overload"])
def test_resilient_launch_absorbs_an_nvml_outage(mode):
    """A flake outlasting the NVML retry budget degrades to the CPU arm."""
    deployment = _deployment(**{mode: True})
    deployment.gpu_host.faults.inject_nvml_error(
        NVMLError.NVML_ERROR_TIMEOUT, count=DEFAULT_NVML_RETRY.max_attempts + 1
    )
    job = deployment.app.submit("racon", {"workload": "unit"})
    destination = deployment.job_config.destination("local_gpu")

    launched = deployment.local_runner.launch(job, destination)

    assert job.state is JobState.RUNNING
    assert launched.context.environment["GALAXY_GPU_ENABLED"] == "false"
    assert launched.host_process is None
    assert deployment.mapper.degraded_queries >= 1
    assert deployment.local_runner.finish(launched).state is JobState.OK
