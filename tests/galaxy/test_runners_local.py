"""Local runner: lifecycle, env, GPU process handling, failures."""

import pytest

from repro.galaxy.errors import ExecutorNotFoundError, GalaxyError
from repro.galaxy.job import JobState


def run_racon(deployment, **params):
    defaults = {"threads": 4, "batches": 1, "workload": "unit"}
    defaults.update(params)
    return deployment.run_tool("racon", defaults)


class TestLifecycle:
    def test_successful_job_reaches_ok(self, deployment):
        job = run_racon(deployment)
        assert job.state is JobState.OK
        assert job.exit_code == 0
        states = [s for s, _ in job.state_history]
        assert states == [JobState.QUEUED, JobState.RUNNING, JobState.OK]

    def test_metrics_populated(self, deployment):
        job = run_racon(deployment)
        assert job.metrics.destination_id == "local_gpu"
        assert job.metrics.runtime_seconds > 0
        assert job.metrics.queue_seconds == pytest.approx(0.0)

    def test_command_line_rendered_gpu_arm(self, deployment):
        job = run_racon(deployment, threads=2, batches=8)
        assert job.command_line.startswith("racon_gpu -t 2 --cudapoa-batches 8")

    def test_environment_exported(self, deployment):
        job = run_racon(deployment)
        assert job.environment["GALAXY_GPU_ENABLED"] == "true"
        assert job.environment["CUDA_VISIBLE_DEVICES"] == "0"

    def test_executor_exception_becomes_error(self, deployment):
        def bad(argv, ctx):
            raise RuntimeError("segfault")

        deployment.app.register_executor("racon_gpu", bad)
        job = run_racon(deployment)
        assert job.state is JobState.ERROR
        assert "segfault" in job.stderr

    def test_nonzero_exit_becomes_error(self, deployment):
        from repro.galaxy.app import ToolExecutionResult

        deployment.app.register_executor(
            "racon_gpu",
            lambda argv, ctx: ToolExecutionResult(stderr="bad input", exit_code=3),
        )
        job = run_racon(deployment)
        assert job.state is JobState.ERROR
        assert job.exit_code == 3

    def test_unknown_executable_raises(self, deployment):
        from repro.galaxy.tool_xml import parse_tool_xml

        deployment.app.install_tool(
            parse_tool_xml('<tool id="ghost"><command>ghostbin -x</command></tool>')
        )
        with pytest.raises(ExecutorNotFoundError):
            deployment.run_tool("ghost")

    def test_tool_without_command_rejected(self, deployment):
        from repro.galaxy.tool_xml import parse_tool_xml

        deployment.app.install_tool(parse_tool_xml('<tool id="nocmd"/>'))
        with pytest.raises(GalaxyError):
            deployment.run_tool("nocmd")

    def test_untokenisable_command_stays_on_the_failed_job(self, deployment):
        """An unbalanced quote fails the launch in the tokeniser; the line
        that could not be split is still what the API and CLI report."""
        from repro.galaxy.tool_xml import parse_tool_xml

        deployment.app.install_tool(parse_tool_xml(
            '<tool id="quote"><command>racon --name "$label\n reads.fa</command></tool>'
        ))
        job = deployment.app.submit("quote", {"label": "run 1"})
        with pytest.raises(ValueError, match="No closing quotation"):
            deployment.app.run_job(job)
        assert job.command_line == 'racon --name "run 1 reads.fa'


class TestGpuProcessHandling:
    def test_gpu_process_attached_while_running_released_after(self, deployment):
        host = deployment.gpu_host
        launched = deployment.local_runner.launch(
            deployment.app.submit("racon", {"threads": 4, "workload": "unit"}),
            deployment.job_config.destination("local_gpu"),
        )
        # mid-run: the racon_gpu process occupies its allocated device
        assert host.device(0).process_pids() != []
        deployment.local_runner.finish(launched)
        assert host.device(0).is_idle

    def test_process_name_matches_smi_style(self, deployment):
        launched = deployment.local_runner.launch(
            deployment.app.submit("racon", {"workload": "unit"}),
            deployment.job_config.destination("local_gpu"),
        )
        proc = launched.host_process
        assert proc.name == "/usr/bin/racon_gpu"
        deployment.local_runner.finish(launched)

    def test_gpu_ids_recorded_in_metrics(self, deployment):
        job = run_racon(deployment)
        assert job.metrics.gpu_ids == ["0"]

    def test_cpu_tool_never_touches_gpu(self, deployment):
        job = deployment.run_tool("seqstats", {"threads": 1})
        assert job.state is JobState.OK
        assert job.metrics.gpu_ids == []
        assert job.environment["GALAXY_GPU_ENABLED"] == "false"
        assert deployment.gpu_host.device(0).is_idle


class TestCpuSlots:
    def test_slots_reserved_and_released(self, deployment):
        node = deployment.node
        free_before = node.cpu_slots_free
        run_racon(deployment, threads=8)
        assert node.cpu_slots_free == free_before

    def test_oversubscription_fails_job(self, deployment):
        node = deployment.node
        token = node.reserve_cpus(node.cpu_slots_free)
        job = deployment.app.submit("racon", {"threads": 4, "workload": "unit"})
        with pytest.raises(ValueError):
            deployment.app.run_job(job)
        assert job.state is JobState.ERROR
        node.release_cpus(token)
