"""GPU device model: architecture figures, processes, telemetry."""

import pytest

from repro.gpusim.device import GPUDevice, TESLA_GK210, TESLA_K80_BOARD
from repro.gpusim.errors import InvalidDeviceError
from repro.gpusim.memory import MIB


class TestArchitecture:
    def test_paper_k80_figures(self):
        """§II-C: 2496 cores, 15 SMs, 4 warp schedulers, 32-thread warps."""
        assert TESLA_GK210.cuda_cores == 2496
        assert TESLA_GK210.sm_count == 15
        assert TESLA_GK210.warp_schedulers_per_sm == 4
        assert TESLA_GK210.threads_per_warp == 32
        assert TESLA_GK210.max_threads_per_block == 2048
        assert TESLA_GK210.max_warps_per_sm == 64

    def test_board_is_two_dies_24gb(self):
        """A K80 board = two GK210 dies, ~24 GB total."""
        assert TESLA_K80_BOARD.dies == 2

    def test_clock_range(self):
        assert TESLA_GK210.base_clock_mhz == 560.0
        assert TESLA_GK210.boost_clock_mhz == 875.0

    def test_peak_gflops_positive(self):
        assert TESLA_GK210.peak_gflops == pytest.approx(2 * 2496 * 0.875, rel=1e-6)

    def test_fb_memory_matches_smi_output(self):
        """Fig. 10 shows 11441 MiB per device."""
        assert TESLA_GK210.fb_memory_mib == 11441


class TestDevice:
    def test_negative_minor_rejected(self):
        with pytest.raises(InvalidDeviceError):
            GPUDevice(minor_number=-1)

    def test_fresh_device_is_idle(self):
        device = GPUDevice(0)
        assert device.is_idle
        assert device.fb_used_mib == 0
        assert device.process_pids() == []

    def test_attach_creates_context_and_occupies(self):
        device = GPUDevice(0)
        device.attach_process(100, "/usr/bin/racon_gpu", now=1.0)
        assert not device.is_idle
        assert device.process_pids() == [100]
        assert device.fb_used_mib == 60

    def test_attach_idempotent_for_live_pid(self):
        device = GPUDevice(0)
        device.attach_process(100, "tool")
        device.attach_process(100, "tool")
        assert device.fb_used_mib == 60
        assert len(device.compute_processes()) == 1

    def test_detach_reclaims_memory_and_resets_telemetry(self):
        device = GPUDevice(0)
        device.attach_process(100, "tool")
        device.alloc(500 * MIB, pid=100)
        device.sm_utilization = 95.0
        freed = device.detach_process(100, now=2.0)
        assert freed == 560 * MIB
        assert device.is_idle
        assert device.sm_utilization == 0.0
        assert device.pcie_generation_current == 1

    def test_detach_keeps_telemetry_while_others_run(self):
        device = GPUDevice(0)
        device.attach_process(100, "a")
        device.attach_process(101, "b")
        device.sm_utilization = 80.0
        device.detach_process(100)
        assert device.sm_utilization == 80.0
        assert device.process_pids() == [101]

    def test_process_order_is_attach_order(self):
        """nvidia-smi lists processes in attach order (Fig. 11)."""
        device = GPUDevice(0)
        for pid in (39953, 41105, 41872):
            device.attach_process(pid, "/usr/bin/racon_gpu")
        assert device.process_pids() == [39953, 41105, 41872]

    def test_temperature_and_power_track_utilization(self):
        device = GPUDevice(0)
        idle_temp, idle_power = device.temperature_c, device.power_draw_watts
        device.sm_utilization = 100.0
        assert device.temperature_c > idle_temp
        assert device.power_draw_watts > idle_power
        assert device.power_draw_watts <= device.arch.power_limit_watts

    def test_pcie_gen_rises_on_attach(self):
        device = GPUDevice(0)
        assert device.pcie_generation_current == 1
        device.attach_process(1, "tool")
        assert device.pcie_generation_current == device.arch.pcie_generation_max

    def test_bus_ids_distinct(self):
        assert GPUDevice(0).bus_id != GPUDevice(1).bus_id
