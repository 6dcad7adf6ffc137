"""Device loss (XID errors): the scheduler routes around dead GPUs."""

import pytest

from repro.core.orchestrator import build_deployment
from repro.core.gpu_usage import get_gpu_usage
from repro.galaxy.job import JobState
from repro.gpusim.smi import render_table, render_xml
from repro.tools.executors import register_paper_tools


class TestDeviceModel:
    def test_failure_kills_attached_processes(self, host):
        proc = host.launch_process("tool", cuda_visible_devices="0")
        casualties = host.device(0).mark_failed()
        assert casualties == [proc.pid]
        assert host.device(0).memory.used == 0
        assert not host.device(0).is_idle  # lost, not available

    def test_recover_restores_enumeration(self, host):
        host.device(0).mark_failed()
        assert len(host.healthy_devices()) == 1
        host.device(0).recover()
        assert len(host.healthy_devices()) == 2


class TestDriverSurfaces:
    def test_smi_drops_lost_device(self, host):
        host.device(0).mark_failed()
        xml = render_xml(host)
        assert "<attached_gpus>1</attached_gpus>" in xml
        assert "<minor_number>0</minor_number>" not in xml
        assert "<minor_number>1</minor_number>" in xml
        table = render_table(host)
        assert "00000000:05:00.0" not in table  # device 0's bus id

    def test_nvml_count_shrinks(self, host):
        from repro.gpusim.nvml import NvmlLibrary

        lib = NvmlLibrary(host)
        lib.nvmlInit()
        assert lib.nvmlDeviceGetCount() == 2
        host.device(1).mark_failed()
        assert lib.nvmlDeviceGetCount() == 1

    def test_get_gpu_usage_sees_survivors_only(self, host):
        host.device(0).mark_failed()
        available, all_gpus = get_gpu_usage(host)
        assert all_gpus == ["1"]
        assert available == ["1"]

    def test_cuda_never_enumerates_lost_device(self, host):
        host.device(0).mark_failed()
        proc = host.launch_process("tool", cuda_visible_devices="0,1")
        assert proc.device_indices == [1]


class TestSchedulingAroundFailures:
    @pytest.fixture
    def deployment(self):
        dep = build_deployment()
        register_paper_tools(dep.app)
        return dep

    def test_jobs_avoid_failed_device(self, deployment):
        """Racon requests GPU 0; GPU 0 is dead; the job lands on GPU 1."""
        deployment.gpu_host.device(0).mark_failed()
        job = deployment.run_tool("racon", {"workload": "unit"})
        assert job.state is JobState.OK
        assert job.environment["CUDA_VISIBLE_DEVICES"] == "1"
        assert job.metrics.gpu_ids == ["1"]

    def test_all_devices_failed_degrades_to_cpu(self, deployment):
        """Every GPU lost: NVML counts zero, the job runs its CPU arm —
        the same user-agnostic fallback as a GPU-less cluster."""
        for device in deployment.gpu_host.devices:
            device.mark_failed()
        job = deployment.run_tool("racon", {"threads": 4, "workload": "unit"})
        assert job.state is JobState.OK
        assert job.environment["GALAXY_GPU_ENABLED"] == "false"
        assert job.command_line.startswith("racon ")

    def test_recovery_restores_gpu_mapping(self, deployment):
        for device in deployment.gpu_host.devices:
            device.mark_failed()
        deployment.gpu_host.device(1).recover()
        job = deployment.run_tool("racon", {"workload": "unit"})
        assert job.environment["GALAXY_GPU_ENABLED"] == "true"
        assert job.environment["CUDA_VISIBLE_DEVICES"] == "1"

    def test_mid_fleet_failure_in_trace(self, deployment):
        """A device dies mid-trace; subsequent placements avoid it."""
        from repro.workloads.traces import TraceReplayer, generate_trace

        trace = generate_trace(
            n_jobs=10, mean_interarrival_s=4.0, seed=3, tool_mix={"racon": 1.0}
        )
        deployment.gpu_host.device(0).mark_failed()
        result = TraceReplayer(deployment).replay(trace)
        for job in result.jobs:
            assert "0" not in job.gpu_ids
