"""GPU memory admission control (extension of the Memory approach)."""

import pytest

from repro.core.admission import GpuMemoryAdmissionController
from repro.core.mapper import GpuComputationMapper
from repro.galaxy.job import GalaxyJob
from repro.galaxy.tool_xml import parse_tool_xml

MIB = 1024**2

GPU_TOOL = parse_tool_xml(
    '<tool id="g"><requirements>'
    '<requirement type="compute">gpu</requirement>'
    "</requirements><command>racon_gpu</command></tool>"
)


def job_with(footprint_mib=None):
    params = {} if footprint_mib is None else {"gpu_memory_mib": footprint_mib}
    return GalaxyJob(tool=GPU_TOOL, params=params)


class TestController:
    def test_default_footprint(self):
        controller = GpuMemoryAdmissionController()
        assert controller.required_mib(job_with()) == 256

    def test_declared_footprint(self):
        controller = GpuMemoryAdmissionController()
        assert controller.required_mib(job_with(8000)) == 8000

    def test_invalid_footprint(self):
        with pytest.raises(ValueError):
            GpuMemoryAdmissionController().required_mib(job_with(-5))


class TestMapperIntegration:
    def make_mapper(self, host):
        mapper = GpuComputationMapper(host)
        mapper.admission = GpuMemoryAdmissionController()
        return mapper

    def test_fitting_job_admitted(self, host):
        mapper = self.make_mapper(host)
        env = mapper.prepare_environment(job_with(4000))
        assert env["GALAXY_GPU_ENABLED"] == "true"
        assert env["CUDA_VISIBLE_DEVICES"] == "0,1"

    def test_oversized_job_falls_back_to_cpu(self, host):
        """A footprint no device can hold degrades to CPU instead of
        dying with a CUDA OOM mid-run."""
        mapper = self.make_mapper(host)
        env = mapper.prepare_environment(job_with(20_000))  # > 11441 MiB
        assert env["GALAXY_GPU_ENABLED"] == "false"
        assert "CUDA_VISIBLE_DEVICES" not in env

    def test_selection_trimmed_to_fitting_devices(self, host):
        """One device nearly full: the multi-device selection shrinks to
        the device that still fits the footprint."""
        proc = host.launch_process("hog", cuda_visible_devices="0")
        host.device(0).alloc(10_000 * MIB, pid=proc.pid)
        # device 0 busy anyway; make both 'busy' so PID scatters to all:
        proc2 = host.launch_process("small", cuda_visible_devices="1")
        mapper = self.make_mapper(host)
        env = mapper.prepare_environment(job_with(5_000))
        assert env["GALAXY_GPU_ENABLED"] == "true"
        assert env["CUDA_VISIBLE_DEVICES"] == "1"
        assert mapper.admission.log[-1].admitted
        assert "trimmed" in mapper.admission.log[-1].reason

    def test_admission_log_records_rejections(self, host):
        mapper = self.make_mapper(host)
        mapper.prepare_environment(job_with(50_000))
        entry = mapper.admission.log[-1]
        assert not entry.admitted
        assert entry.required_mib == 50_000
        assert "free" in entry.reason

    def test_headroom_respected(self, host):
        """A job that fits only without headroom is rejected."""
        mapper = self.make_mapper(host)
        env = mapper.prepare_environment(job_with(11_400))  # 11400+128 > 11441
        assert env["GALAXY_GPU_ENABLED"] == "false"


class TestUtilizationStrategy:
    def test_least_utilized_device_selected(self, host):
        from repro.core.allocation import UtilizationAllocationStrategy

        host.launch_process("a", cuda_visible_devices="0")
        host.launch_process("b", cuda_visible_devices="1")
        host.device(0).sm_utilization = 95.0
        host.device(1).sm_utilization = 10.0
        mapper = GpuComputationMapper(host, strategy=UtilizationAllocationStrategy())
        env = mapper.prepare_environment(job_with())
        assert env["CUDA_VISIBLE_DEVICES"] == "1"
        assert "utilisation" in mapper.last_decision().reason

    def test_requested_idle_still_honoured(self, host):
        from repro.core.allocation import UtilizationAllocationStrategy

        strategy = UtilizationAllocationStrategy()
        tool = parse_tool_xml(
            '<tool id="g"><requirements>'
            '<requirement type="compute" version="1">gpu</requirement>'
            "</requirements><command>racon_gpu</command></tool>"
        )
        mapper = GpuComputationMapper(host, strategy=strategy)
        env = mapper.prepare_environment(GalaxyJob(tool=tool))
        assert env["CUDA_VISIBLE_DEVICES"] == "1"

    def test_factory_knows_utilization(self):
        from repro.core.allocation import (
            UtilizationAllocationStrategy,
            strategy_by_name,
        )

        assert isinstance(
            strategy_by_name("utilization"), UtilizationAllocationStrategy
        )
