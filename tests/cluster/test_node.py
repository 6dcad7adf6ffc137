"""Compute node: resources, CPU slot accounting, testbed presets."""

import pytest

from repro.cluster.node import ComputeNode, NodeResources
from repro.gpusim.clock import VirtualClock
from repro.gpusim.host import make_k80_host


class TestNodeResources:
    def test_validation(self):
        with pytest.raises(ValueError):
            NodeResources(cpu_slots=0, memory_gib=1, gpu_count=0)
        with pytest.raises(ValueError):
            NodeResources(cpu_slots=1, memory_gib=0, gpu_count=0)
        with pytest.raises(ValueError):
            NodeResources(cpu_slots=1, memory_gib=1, gpu_count=-1)


class TestComputeNode:
    def test_paper_testbed_shape(self):
        """§V-B: Xeon E5-2670 with 48 CPUs and two K80 dies."""
        node = ComputeNode.paper_testbed()
        assert node.resources.cpu_slots == 48
        assert node.resources.gpu_count == 2
        assert node.gpu_host is not None
        assert node.gpu_host.device_count == 2
        assert node.clock is node.gpu_host.clock

    def test_cpu_only_node(self):
        node = ComputeNode.cpu_only()
        assert node.gpu_host is None

    def test_gpu_count_must_match_host(self):
        clock = VirtualClock()
        host = make_k80_host(clock=clock)
        with pytest.raises(ValueError):
            ComputeNode(
                "n",
                NodeResources(cpu_slots=4, memory_gib=8, gpu_count=4),
                clock=clock,
                gpu_host=host,
            )

    def test_gpus_require_host(self):
        with pytest.raises(ValueError):
            ComputeNode("n", NodeResources(cpu_slots=4, memory_gib=8, gpu_count=2))

    def test_cpu_reservation_lifecycle(self):
        node = ComputeNode.cpu_only(cpu_slots=8)
        token = node.reserve_cpus(5)
        assert node.cpu_slots_free == 3
        assert node.release_cpus(token) == 5
        assert node.cpu_slots_free == 8

    def test_overcommit_rejected(self):
        node = ComputeNode.cpu_only(cpu_slots=4)
        node.reserve_cpus(4)
        with pytest.raises(ValueError):
            node.reserve_cpus(1)

    def test_invalid_reservations(self):
        node = ComputeNode.cpu_only(cpu_slots=4)
        with pytest.raises(ValueError):
            node.reserve_cpus(0)
        with pytest.raises(ValueError):
            node.release_cpus(999)

    def test_independent_reservations(self):
        node = ComputeNode.cpu_only(cpu_slots=8)
        t1 = node.reserve_cpus(2)
        t2 = node.reserve_cpus(3)
        node.release_cpus(t1)
        assert node.cpu_slots_free == 5
        node.release_cpus(t2)
        assert node.cpu_slots_free == 8
