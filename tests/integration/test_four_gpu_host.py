"""The paper's full testbed: two K80 boards = four GPU dies.

Most experiments use one board (devices 0-1); §V-B's machine carries
two.  These tests scale the scheduling machinery to four minor numbers.
"""

import pytest

from repro.cluster.node import ComputeNode, NodeResources
from repro.core.orchestrator import build_deployment
from repro.gpusim.host import make_k80_host
from repro.gpusim.smi import process_placement
from repro.tools.executors import register_paper_tools


@pytest.fixture
def four_gpu_deployment():
    host = make_k80_host(boards=2)
    node = ComputeNode(
        hostname="gyan-node-big",
        resources=NodeResources(cpu_slots=48, memory_gib=128, gpu_count=4),
        clock=host.clock,
        gpu_host=host,
    )
    deployment = build_deployment(node=node)
    register_paper_tools(deployment.app)
    return deployment


def launch(deployment, tool_id):
    return deployment.launch_tool(tool_id, {"workload": "unit"})


class TestFourDieTopology:
    def test_two_boards_four_devices(self, four_gpu_deployment):
        host = four_gpu_deployment.gpu_host
        assert host.device_count == 4
        assert len({d.bus_id for d in host.devices}) == 4

    def test_nvml_counts_four(self, four_gpu_deployment):
        from repro.gpusim.nvml import NvmlLibrary

        lib = NvmlLibrary(four_gpu_deployment.gpu_host)
        lib.nvmlInit()
        assert lib.nvmlDeviceGetCount() == 4

    def test_smi_lists_four(self, four_gpu_deployment):
        from repro.gpusim.smi import render_xml

        xml = render_xml(four_gpu_deployment.gpu_host)
        assert "<attached_gpus>4</attached_gpus>" in xml


class TestSchedulingAcrossFourDies:
    def test_pid_fills_requested_then_idle(self, four_gpu_deployment):
        dep = four_gpu_deployment
        first = launch(dep, "racon")   # wants 0 -> 0
        second = launch(dep, "racon")  # 0 busy -> idle 1,2,3
        placement = process_placement(dep.gpu_host)
        assert placement[0] == [first.host_process.pid]
        for gid in (1, 2, 3):
            assert second.host_process.pid in placement[gid]

    def test_memory_packs_one_at_a_time(self, four_gpu_deployment):
        dep = four_gpu_deployment
        dep.set_allocation_strategy("memory")
        seen = []
        launch(dep, "racon")  # requested 0 idle -> 0
        for _ in range(3):
            handle = launch(dep, "bonito")  # requested 1 eventually busy
            seen.append(handle.host_process.device_indices)
        # each launch lands on exactly one device
        assert all(len(devices) == 1 for devices in seen)
        placement = process_placement(dep.gpu_host)
        # four jobs over four devices: nobody shares
        assert all(len(pids) == 1 for pids in placement.values())

    def test_scatter_needs_all_four_busy(self, four_gpu_deployment):
        dep = four_gpu_deployment
        for _ in range(4):
            launch(dep, "racon")
        fifth = launch(dep, "racon")
        assert fifth.host_process.device_indices == [0, 1, 2, 3]

    def test_board_loss_leaves_other_board_working(self, four_gpu_deployment):
        dep = four_gpu_deployment
        dep.gpu_host.device(0).mark_failed()
        dep.gpu_host.device(1).mark_failed()
        job = dep.run_tool("racon", {"workload": "unit"})
        assert job.environment["GALAXY_GPU_ENABLED"] == "true"
        assert set(job.environment["CUDA_VISIBLE_DEVICES"].split(",")) <= {"2", "3"}
