"""Deployment façade wiring."""

import pytest

from repro.cluster.node import ComputeNode
from repro.core.orchestrator import build_deployment
from repro.core.allocation import MemoryAllocationStrategy, PidAllocationStrategy
from repro.galaxy.errors import JobConfError


class TestBuildDeployment:
    def test_default_is_paper_testbed(self, deployment):
        assert deployment.node.resources.cpu_slots == 48
        assert deployment.gpu_host.device_count == 2
        assert deployment.clock is deployment.node.clock

    def test_runners_registered(self, deployment):
        assert set(deployment.app.runners) == {"local", "docker", "singularity"}

    def test_monitor_optional(self):
        assert build_deployment(node=ComputeNode.cpu_only()).monitor is None

    def test_monitor_attached_to_runners(self, deployment):
        assert deployment.local_runner.usage_monitor is deployment.monitor
        assert deployment.docker_runner.usage_monitor is deployment.monitor

    def test_allocation_strategy_selection(self):
        dep = build_deployment(allocation_strategy="memory")
        assert isinstance(dep.mapper.strategy, MemoryAllocationStrategy)

    def test_set_allocation_strategy_by_name_and_object(self, deployment):
        deployment.set_allocation_strategy("memory")
        assert isinstance(deployment.mapper.strategy, MemoryAllocationStrategy)
        deployment.set_allocation_strategy(PidAllocationStrategy())
        assert isinstance(deployment.mapper.strategy, PidAllocationStrategy)

    def test_route_tool_validates_destination(self, deployment):
        with pytest.raises(JobConfError):
            deployment.route_tool_to("racon", "nowhere")

    def test_shared_clock_across_layers(self, deployment):
        assert deployment.docker_runtime.clock is deployment.clock
        assert deployment.singularity_runtime.clock is deployment.clock
        assert deployment.gpu_host.clock is deployment.clock

    def test_nvidia_docker_toggle(self):
        dep = build_deployment(nvidia_docker_installed=False)
        assert not dep.docker_runtime.nvidia_docker_installed
