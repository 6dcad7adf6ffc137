"""Failure injection across the stack: every error path exercised."""

import pytest

from repro.core.orchestrator import build_deployment
from repro.core.retry import DEFAULT_LAUNCH_RETRY
from repro.galaxy.job import JobState
from repro.tools.executors import register_paper_tools


class TestContainerFailures:
    def test_missing_nvidia_docker_fails_gpu_container_job(self):
        """The failure GYAN's availability checks exist to avoid: GPU
        flag without the NVIDIA runtime installed."""
        deployment = build_deployment(nvidia_docker_installed=False)
        register_paper_tools(deployment.app)
        deployment.route_tool_to("racon", "docker_dynamic")
        job = deployment.run_tool("racon", {"workload": "unit"})
        assert job.state is JobState.ERROR
        assert "nvidia-docker" in job.stderr

    def test_missing_image_fails_job(self, deployment):
        from repro.galaxy.tool_xml import parse_tool_xml

        deployment.app.install_tool(
            parse_tool_xml(
                '<tool id="ghosted">'
                "<requirements>"
                '<requirement type="compute">gpu</requirement>'
                '<container type="docker">nobody/ghost:1</container>'
                "</requirements>"
                "<command>racon_gpu -t 1</command></tool>"
            )
        )
        deployment.route_tool_to("ghosted", "docker_dynamic")
        job = deployment.run_tool("ghosted", {"workload": "unit"})
        assert job.state is JobState.ERROR
        assert "not found" in job.stderr

    def test_gpu_process_released_after_container_failure(self):
        deployment = build_deployment(nvidia_docker_installed=False)
        register_paper_tools(deployment.app)
        deployment.route_tool_to("racon", "docker_dynamic")
        deployment.run_tool("racon", {"workload": "unit"})
        assert all(d.is_idle for d in deployment.gpu_host.devices)


def _container_run(runtime: str, failures: int, resilient: bool = True):
    """racon pinned to ``<runtime>_gpu`` on a deployment whose container
    daemon drops the next ``failures`` launches."""
    deployment = build_deployment(resilient=resilient)
    register_paper_tools(deployment.app)
    deployment.route_tool_to("racon", f"{runtime}_gpu")
    if failures:
        deployment.gpu_host.faults.inject_container_failure(
            "Error response from daemon: connection reset", count=failures
        )
    job = deployment.run_tool("racon", {"workload": "unit"})
    runner = getattr(deployment, f"{runtime}_runner")
    return job, runner.requeues, deployment.clock.now


@pytest.mark.parametrize("runtime", ["docker", "singularity"])
class TestContainerLaunchRetry:
    """Both container runners requeue a daemon hiccup on the GPU arm of a
    resilient deployment; a stock one fails the job on it."""

    @pytest.mark.parametrize("failures", [1, 2])
    def test_fewer_failures_than_attempts_stay_on_the_gpu(self, runtime, failures):
        assert failures < DEFAULT_LAUNCH_RETRY.max_attempts
        _, _, clean_end = _container_run(runtime, 0)
        job, requeues, end = _container_run(runtime, failures)
        assert job.state is JobState.OK
        assert job.metrics.destination_id == f"{runtime}_gpu"
        assert job.metrics.resubmit_chain == []
        assert requeues == failures
        backoff = sum(DEFAULT_LAUNCH_RETRY.schedule()[:failures])
        assert end - clean_end == pytest.approx(backoff)

    def test_spent_budget_resubmits_to_the_cpu_fallback(self, runtime):
        failures = DEFAULT_LAUNCH_RETRY.max_attempts
        job, requeues, _ = _container_run(runtime, failures)
        assert job.state is JobState.OK
        assert job.metrics.destination_id == f"{runtime}_cpu_fallback"
        assert len(job.metrics.resubmit_chain) == 2
        assert requeues == failures - 1

    def test_stock_runner_fails_on_the_first_hiccup(self, runtime):
        job, requeues, end = _container_run(runtime, 1, resilient=False)
        assert job.state is JobState.ERROR
        assert "ContainerLaunchError" in job.stderr
        assert requeues == 0
        assert end == 0.0  # no backoff: the clock never moved


class TestDeviceFailures:
    def test_device_oom_inside_tool_fails_job_cleanly(self, deployment):
        """A tool that over-allocates device memory errors out, and the
        device is fully reclaimed afterwards."""
        from repro.galaxy.app import ToolExecutionResult
        from repro.gpusim.kernels import KernelTimingModel

        def hog(argv, ctx):
            timing = KernelTimingModel(
                ctx.node.gpu_host, ctx.gpu_devices[0], pid=ctx.pid
            )
            timing.malloc(50 * 1024**3)  # > 11441 MiB
            return ToolExecutionResult()

        deployment.app.register_executor("racon_gpu", hog)
        job = deployment.run_tool("racon", {"workload": "unit"})
        assert job.state is JobState.ERROR
        assert "out of memory" in job.stderr
        assert deployment.gpu_host.device(0).memory.used == 0

    def test_monitor_stops_even_when_tool_crashes(self, deployment):
        def boom(argv, ctx):
            ctx.clock.advance(2.5)
            raise RuntimeError("mid-run crash")

        deployment.app.register_executor("racon_gpu", boom)
        job = deployment.run_tool("racon", {"workload": "unit"})
        assert job.state is JobState.ERROR
        session = deployment.monitor.session_for(job.job_id)
        assert session.stopped
        assert len(session.samples) >= 3  # sampled through the crash


class TestSchedulingEdgeCases:
    def test_empty_cuda_visible_devices_means_cpu(self, deployment):
        """An empty device mask exposes nothing; the process attaches
        nowhere and the tool must fall back to its CPU arm."""
        proc = deployment.gpu_host.launch_process("x", cuda_visible_devices="")
        assert proc.device_indices == []
        deployment.gpu_host.terminate_process(proc.pid)

    def test_malformed_mask_truncates_not_crashes(self, deployment):
        proc = deployment.gpu_host.launch_process(
            "x", cuda_visible_devices="1,garbage,0"
        )
        assert proc.device_indices == [1]
        deployment.gpu_host.terminate_process(proc.pid)

    def test_many_sequential_jobs_leave_no_residue(self, deployment):
        for _ in range(10):
            job = deployment.run_tool("racon", {"workload": "unit"})
            assert job.state is JobState.OK
        assert all(d.is_idle for d in deployment.gpu_host.devices)
        assert deployment.gpu_host.device(0).memory.used == 0
        assert deployment.node.cpu_slots_free == 48

    def test_workflow_failure_leaves_devices_clean(self, deployment):
        from repro.galaxy.workflow import WorkflowDefinition, WorkflowRunner

        def boom(argv, ctx):
            raise RuntimeError("step crash")

        deployment.app.register_executor("racon_gpu", boom)
        wf = WorkflowDefinition(name="doomed")
        wf.add_step("racon", {"workload": "unit"})
        wf.add_step("seqstats", {"threads": 1})
        invocation = WorkflowRunner(deployment.app).invoke(wf)
        assert not invocation.succeeded
        assert all(d.is_idle for d in deployment.gpu_host.devices)


class TestHistoryCollection:
    def test_successful_job_outputs_land_in_history(self, deployment):
        before = len(deployment.app.histories[0])
        deployment.run_tool("racon", {"workload": "unit"})
        history = deployment.app.histories[0]
        assert len(history) == before + 1
        dataset = history.get("racon/consensus")
        assert dataset.format == "fasta"
        assert dataset.created_by_job is not None

    def test_failed_job_adds_nothing(self, deployment):
        def boom(argv, ctx):
            raise RuntimeError("x")

        deployment.app.register_executor("racon_gpu", boom)
        before = len(deployment.app.histories[0])
        deployment.run_tool("racon", {"workload": "unit"})
        assert len(deployment.app.histories[0]) == before


class TestChromeTrace:
    def test_trace_export_valid_json(self, deployment):
        from repro.gpusim.profiler import CudaProfiler

        deployment.app.profiler = CudaProfiler()
        deployment.run_tool("racon", {"workload": "dataset"})
        records = deployment.app.profiler.records
        assert records
        assert "generatePOAKernel" in {r.name for r in records}
        assert all(r.duration >= 0 for r in records)
