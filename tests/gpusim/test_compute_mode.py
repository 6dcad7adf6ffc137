"""Device compute modes: why the paper's scatter needs Default mode."""

import pytest

from repro.gpusim.device import ComputeMode, ComputeModeError


class TestComputeModes:
    def test_default_allows_many_contexts(self, host):
        for _ in range(3):
            host.launch_process("tool", cuda_visible_devices="0")
        assert len(host.device(0).compute_processes()) == 3

    def test_exclusive_admits_one(self, host):
        host.device(0).compute_mode = ComputeMode.EXCLUSIVE_PROCESS
        host.launch_process("first", cuda_visible_devices="0")
        with pytest.raises(ComputeModeError):
            host.launch_process("second", cuda_visible_devices="0")

    def test_exclusive_frees_on_exit(self, host):
        host.device(0).compute_mode = ComputeMode.EXCLUSIVE_PROCESS
        proc = host.launch_process("first", cuda_visible_devices="0")
        host.terminate_process(proc.pid)
        host.launch_process("second", cuda_visible_devices="0")  # fine now

    def test_prohibited_rejects_all(self, host):
        host.device(1).compute_mode = ComputeMode.PROHIBITED
        with pytest.raises(ComputeModeError):
            host.launch_process("tool", cuda_visible_devices="1")

    def test_reattach_same_pid_allowed(self, host):
        host.device(0).compute_mode = ComputeMode.EXCLUSIVE_PROCESS
        proc = host.launch_process("tool", cuda_visible_devices="0")
        # idempotent re-attach of the live pid is not a second context
        host.device(0).attach_process(proc.pid, "tool")

    def test_case3_scatter_requires_default_mode(self):
        """The paper's Case 3 (processes 3 and 4 scattered onto busy
        GPUs) only works because the K80s ran in Default compute mode;
        under Exclusive_Process the same placement fails."""
        from repro.core.orchestrator import build_deployment
        from repro.tools.executors import register_paper_tools

        deployment = build_deployment()
        register_paper_tools(deployment.app)
        for device in deployment.gpu_host.devices:
            device.compute_mode = ComputeMode.EXCLUSIVE_PROCESS

        unit = {"workload": "unit"}
        first = deployment.launch_tool("racon", unit)
        second = deployment.launch_tool("racon", unit)
        # Third job: both devices busy -> PID strategy scatters -> the
        # exclusive-mode attach blows up at launch.
        with pytest.raises(ComputeModeError):
            deployment.launch_tool("racon", unit)
        first.runner.finish(first)
        second.runner.finish(second)


class TestSmiComputeModeColumn:
    def test_table_reflects_mode(self, host):
        from repro.gpusim.device import ComputeMode
        from repro.gpusim.smi import render_table

        host.device(1).compute_mode = ComputeMode.EXCLUSIVE_PROCESS
        table = render_table(host)
        assert "Default" in table
        assert "E. Process" in table
