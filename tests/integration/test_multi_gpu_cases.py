"""The paper's four multi-GPU experiments (§VI-C, Figs. 8-11).

Each case submits tools with explicit GPU-ID requirements (the
requirement ``version`` tag), overlaps their execution with the
launch/finish split, and asserts the placement the paper reports,
verified through the same interface the paper uses: ``nvidia-smi``.
"""

import pytest

from repro.core.orchestrator import build_deployment
from repro.gpusim.smi import process_placement, render_table
from repro.tools.executors import register_paper_tools


@pytest.fixture
def dep():
    """A deployment whose racon wants GPU 0 and bonito GPU 1 (§VI-C)."""
    deployment = build_deployment(allocation_strategy="pid")
    register_paper_tools(deployment.app)
    return deployment


def launch(deployment, tool_id):
    """Start a unit job and keep it running (the cases overlap)."""
    return deployment.launch_tool(tool_id, {"workload": "unit"})


class TestCase1TwoDifferentTools:
    def test_each_tool_lands_on_its_requested_gpu(self, dep):
        """Fig. 8 Case 1 / Fig. 10: Racon -> GPU 0, Bonito -> GPU 1."""
        racon = launch(dep, "racon")
        bonito = launch(dep, "bonito")
        placement = process_placement(dep.gpu_host)
        assert placement[0] == [racon.host_process.pid]
        assert placement[1] == [bonito.host_process.pid]
        racon.runner.finish(racon)
        bonito.runner.finish(bonito)
        assert dep.gpu_host.available_devices() == dep.gpu_host.devices

    def test_console_output_shape(self, dep):
        racon = launch(dep, "racon")
        bonito = launch(dep, "bonito")
        table = render_table(dep.gpu_host)
        assert "/usr/bin/racon_gpu" in table
        assert "/usr/bin/bonito" in table


class TestCase2SameToolTwice:
    def test_second_instance_diverted_to_idle_gpu(self, dep):
        """Fig. 8 Case 2: two Bonitos both requesting GPU 1; the second
        is scheduled to the idle GPU 0."""
        first = launch(dep, "bonito")
        second = launch(dep, "bonito")
        placement = process_placement(dep.gpu_host)
        assert placement[1] == [first.host_process.pid]
        assert placement[0] == [second.host_process.pid]

    def test_mapper_records_divert_reason(self, dep):
        launch(dep, "bonito")
        launch(dep, "bonito")
        decision = dep.mapper.last_decision()
        assert decision.gpu_ids == ("0",)
        assert "busy" in decision.reason


class TestCase3FourInstancesPidStrategy:
    def test_scatter_when_all_busy(self, dep):
        """Fig. 9/11 Case 3: four Racons — first two fill GPUs 0 and 1,
        the rest scatter across both."""
        dep.route_tool_to("racon", "docker_dynamic")  # containerized, as in the paper
        dep.registry.pull("gulsumgudukbay/racon_dockerfile:latest")
        launched = [launch(dep, "racon") for _ in range(4)]
        pids = [l.host_process.pid for l in launched]
        placement = process_placement(dep.gpu_host)
        assert placement[0][0] == pids[0]
        assert placement[1][0] == pids[1]
        # third and fourth attached to BOTH devices
        for pid in pids[2:]:
            assert pid in placement[0] and pid in placement[1]

    def test_console_output_matches_fig11_structure(self, dep):
        dep.route_tool_to("racon", "docker_dynamic")
        dep.registry.pull("gulsumgudukbay/racon_dockerfile:latest")
        for _ in range(4):
            launch(dep, "racon")
        table = render_table(dep.gpu_host)
        rows = [line for line in table.splitlines() if "racon_gpu" in line]
        assert len(rows) == 6  # 2 exclusive + 2 scattered on both devices
        assert all("60MiB" in row for row in rows)


class TestCase4MemoryStrategy:
    def test_min_memory_device_chosen(self, dep):
        """Fig. 9 Case 4: Racon on GPU 0 (small footprint), Bonito on
        GPU 1 (large footprint); a second Bonito goes to GPU 0."""
        dep.set_allocation_strategy("memory")
        racon = launch(dep, "racon")
        bonito1 = launch(dep, "bonito")
        # Bonito's network occupies significant device memory (Fig. 10
        # shows 2734 MiB on GPU 1).
        dep.gpu_host.device(1).alloc(2674 * 1024**2, pid=bonito1.host_process.pid)
        bonito2 = launch(dep, "bonito")
        placement = process_placement(dep.gpu_host)
        assert bonito2.host_process.pid in placement[0]
        assert bonito2.host_process.pid not in placement[1]

    def test_memory_strategy_single_device_no_scatter(self, dep):
        """Case 4's rationale: no multi-GPU overhead for tools without
        multi-GPU support — exactly one device exposed."""
        dep.set_allocation_strategy("memory")
        launch(dep, "racon")
        launch(dep, "bonito")
        third = launch(dep, "bonito")
        assert len(third.host_process.device_indices) == 1

    def test_pid_strategy_would_scatter_instead(self, dep):
        """Contrast: under PID allocation the third job scatters."""
        launch(dep, "racon")
        launch(dep, "bonito")
        third = launch(dep, "bonito")
        assert len(third.host_process.device_indices) == 2
