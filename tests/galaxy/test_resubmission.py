"""Job resubmission (Galaxy's <resubmit>): GPU failures recover on CPU."""

import pytest

from repro.core.orchestrator import build_deployment
from repro.core.orchestrator import GYAN_JOB_CONF_XML
from repro.galaxy.job import JobState
from repro.tools.executors import register_paper_tools

#: The GYAN job conf with a recovery path: local_gpu failures resubmit
#: to a CPU destination that pins the GPU env off.
RESUBMIT_JOB_CONF = GYAN_JOB_CONF_XML.replace(
    '<destination id="local_gpu" runner="local"/>',
    """<destination id="local_gpu" runner="local">
            <param id="resubmit_destination">local_cpu_recovery</param>
        </destination>
        <destination id="local_cpu_recovery" runner="local">
            <param id="gpu_enabled_override">false</param>
        </destination>""",
)


@pytest.fixture
def recovering_deployment():
    deployment = build_deployment(job_conf_xml=RESUBMIT_JOB_CONF)
    register_paper_tools(deployment.app)
    return deployment


def flaky_gpu_executor(argv, ctx):
    """A racon_gpu that dies with a runtime CUDA error."""
    raise RuntimeError("CUDA error: an illegal memory access was encountered")


class TestResubmission:
    def test_gpu_failure_recovers_on_cpu(self, recovering_deployment):
        dep = recovering_deployment
        dep.app.register_executor("racon_gpu", flaky_gpu_executor)
        final = dep.run_tool("racon", {"threads": 4, "workload": "unit"})
        # The returned job is the successful CPU retry.
        assert final.state is JobState.OK
        assert final.metrics.destination_id == "local_cpu_recovery"
        assert final.command_line.startswith("racon -t 4")
        assert final.environment["GALAXY_GPU_ENABLED"] == "false"
        assert "CUDA_VISIBLE_DEVICES" not in final.environment

    def test_original_failure_kept_and_linked(self, recovering_deployment):
        dep = recovering_deployment
        dep.app.register_executor("racon_gpu", flaky_gpu_executor)
        final = dep.run_tool("racon", {"workload": "unit"})
        failed = [
            j for j in dep.app.jobs.values() if j.state is JobState.ERROR
        ]
        assert len(failed) == 1
        assert failed[0].metrics.breakdown["resubmitted_as"] == final.job_id
        assert "illegal memory access" in failed[0].stderr

    def test_successful_jobs_not_resubmitted(self, recovering_deployment):
        dep = recovering_deployment
        job = dep.run_tool("racon", {"workload": "unit"})
        assert job.state is JobState.OK
        assert job.metrics.destination_id == "local_gpu"
        assert len(dep.app.jobs) == 1

    def test_no_resubmit_without_config(self, deployment):
        deployment.app.register_executor("racon_gpu", flaky_gpu_executor)
        job = deployment.run_tool("racon", {"workload": "unit"})
        assert job.state is JobState.ERROR
        assert len(deployment.app.jobs) == 1

    def test_devices_released_between_attempts(self, recovering_deployment):
        dep = recovering_deployment
        dep.app.register_executor("racon_gpu", flaky_gpu_executor)
        dep.run_tool("racon", {"workload": "unit"})
        assert all(d.is_idle for d in dep.gpu_host.devices)

    def test_retry_params_preserved(self, recovering_deployment):
        dep = recovering_deployment
        dep.app.register_executor("racon_gpu", flaky_gpu_executor)
        final = dep.run_tool("racon", {"threads": 8, "workload": "unit"})
        assert final.params["threads"] == 8
        assert final.command_line.startswith("racon -t 8")


class TestDestinationOverride:
    def test_override_true_forces_gpu_env(self, deployment):
        """The opposite override also works (admins pinning GPU env on a
        destination for tools without the compute tag)."""
        from repro.galaxy.job_conf import Destination

        deployment.job_config.destinations["forced_gpu"] = Destination(
            destination_id="forced_gpu",
            runner="local",
            params={"gpu_enabled_override": "true"},
        )
        job = deployment.app.submit("racon", {"workload": "unit"})
        destination = deployment.job_config.destination("forced_gpu")
        deployment.local_runner.queue_job(job, destination)
        assert job.environment["GALAXY_GPU_ENABLED"] == "true"
