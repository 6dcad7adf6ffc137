"""GPU host: device sets, process table, CUDA_VISIBLE_DEVICES semantics."""

import pytest
from hypothesis import given, strategies as st

from repro.gpusim.errors import InvalidDeviceError, ProcessError
from repro.gpusim.host import GPUHost, make_k80_host, parse_cuda_visible_devices


class TestParseCudaVisibleDevices:
    def test_unset_exposes_all(self):
        assert parse_cuda_visible_devices(None, 4) == [0, 1, 2, 3]

    def test_empty_exposes_none(self):
        assert parse_cuda_visible_devices("", 4) == []
        assert parse_cuda_visible_devices("   ", 4) == []

    def test_order_preserved(self):
        assert parse_cuda_visible_devices("2,0", 4) == [2, 0]

    def test_truncates_at_first_invalid_token(self):
        assert parse_cuda_visible_devices("1,banana,0", 4) == [1]
        assert parse_cuda_visible_devices("1,7,0", 4) == [1]
        assert parse_cuda_visible_devices("-1,0", 4) == []

    def test_duplicates_collapse_first_wins(self):
        assert parse_cuda_visible_devices("0,1,0", 2) == [0, 1]

    def test_whitespace_tolerated(self):
        assert parse_cuda_visible_devices(" 0 , 1 ", 2) == [0, 1]

    @given(st.text(alphabet="0123456789,- x", max_size=20), st.integers(1, 8))
    def test_never_returns_out_of_range(self, mask, count):
        for index in parse_cuda_visible_devices(mask, count):
            assert 0 <= index < count


class TestHost:
    def test_k80_testbed_has_two_devices(self):
        host = make_k80_host()
        assert host.device_count == 2
        assert host.driver_version == "455.45.01"

    def test_device_lookup_validates(self):
        host = make_k80_host()
        assert host.device(1).minor_number == 1
        with pytest.raises(InvalidDeviceError):
            host.device(2)

    def test_needs_at_least_one_device(self):
        with pytest.raises(ValueError):
            GPUHost(device_count=0)

    def test_launch_attaches_to_masked_devices_only(self):
        host = make_k80_host()
        proc = host.launch_process("/usr/bin/racon_gpu", cuda_visible_devices="1")
        assert proc.device_indices == [1]
        assert host.device(1).process_pids() == [proc.pid]
        assert host.device(0).is_idle

    def test_launch_without_mask_attaches_everywhere(self):
        """CUDA default: all devices visible (paper §IV-A)."""
        host = make_k80_host()
        proc = host.launch_process("tool")
        assert proc.device_indices == [0, 1]

    def test_pids_monotone_and_paperlike(self):
        host = make_k80_host()
        first = host.launch_process("a").pid
        second = host.launch_process("b").pid
        assert first == 39953  # Fig. 11's first PID
        assert second > first

    def test_terminate_detaches_everywhere(self):
        host = make_k80_host()
        proc = host.launch_process("tool", cuda_visible_devices="0,1")
        host.terminate_process(proc.pid)
        assert host.device(0).is_idle and host.device(1).is_idle

    def test_double_terminate_rejected(self):
        host = make_k80_host()
        proc = host.launch_process("tool")
        host.terminate_process(proc.pid)
        with pytest.raises(ProcessError):
            host.terminate_process(proc.pid)

    def test_unknown_pid_rejected(self):
        with pytest.raises(ProcessError):
            make_k80_host().terminate_process(12345)

    def test_available_devices_tracks_occupancy(self):
        host = make_k80_host()
        proc = host.launch_process("tool", cuda_visible_devices="0")
        assert [d.minor_number for d in host.available_devices()] == [1]
        host.terminate_process(proc.pid)
        assert len(host.available_devices()) == 2

    def test_timeline_records_lifecycle(self):
        host = make_k80_host()
        proc = host.launch_process("tool")
        host.clock.advance(3.0)
        host.terminate_process(proc.pid)
        labels = [e.label for e in host.timeline]
        assert labels == ["process_start", "process_end"]

    def test_visible_devices_renumbering_order(self):
        """Inside CUDA_VISIBLE_DEVICES=1,0, ordinal 0 is minor 1."""
        host = make_k80_host()
        ordered = host.visible_devices("1,0")
        assert [d.minor_number for d in ordered] == [1, 0]


class TestAgedHost:
    """A device forgets a process when it detaches; the host remembers."""

    CYCLES = 500

    @pytest.fixture
    def aged(self):
        """A host after 500 launch/terminate cycles, two processes live."""
        host = make_k80_host()
        dead = []
        for _ in range(self.CYCLES):
            proc = host.launch_process("/usr/bin/racon_gpu")
            host.terminate_process(proc.pid)
            dead.append(proc.pid)
        live = [
            host.launch_process("/usr/bin/racon_gpu", cuda_visible_devices="0"),
            host.launch_process("/usr/bin/bonito", cuda_visible_devices="0,1"),
        ]
        return host, dead, live

    def test_a_render_probes_only_live_processes(self, aged):
        from repro.gpusim.smi import process_placement, render_xml

        host, _, live = aged
        xml = render_xml(host)
        attachments = sum(len(proc.device_indices) for proc in live)
        assert xml.count("<process_info>") == attachments == 3
        # Each device's table holds only its live records: a render walks
        # none of the dead ones.
        assert [len(host.device(m)._processes) for m in (0, 1)] == [2, 1]
        assert process_placement(host) == {
            0: [live[0].pid, live[1].pid], 1: [live[1].pid],
        }

    def test_the_host_keeps_its_tombstones(self, aged):
        host, dead, _ = aged
        assert len(dead) == self.CYCLES
        for pid in (dead[0], dead[-1]):
            with pytest.raises(ProcessError, match="already terminated"):
                host.terminate_process(pid)

    def test_a_detached_process_keeps_its_end_time(self):
        host = make_k80_host()
        proc = host.launch_process("tool", cuda_visible_devices="0")
        record = host.device(0).compute_processes()[0]
        host.clock.advance_to(4.0)
        host.terminate_process(proc.pid)
        assert record.end_time == 4.0
        assert host.device(0).compute_processes() == []

    def test_reattaching_a_live_pid_returns_the_existing_record(self, aged):
        host, dead, live = aged
        device = host.device(0)
        record = device.attach_process(live[0].pid, "/usr/bin/racon_gpu")
        assert record is device.compute_processes()[0]
        assert device.process_pids() == [live[0].pid, live[1].pid]
        # A pid that detached long ago attaches as a new record, last in order.
        again = device.attach_process(dead[0], "/usr/bin/racon_gpu", now=9.0)
        assert again.end_time is None and again.start_time == 9.0
        assert device.process_pids() == [live[0].pid, live[1].pid, dead[0]]

    def test_exclusive_mode_and_failure_see_only_the_living(self, aged):
        from repro.gpusim.device import ComputeMode, ComputeModeError

        host, _, live = aged
        device = host.device(1)
        device.compute_mode = ComputeMode.EXCLUSIVE_PROCESS
        with pytest.raises(ComputeModeError):
            device.attach_process(1, "intruder")
        assert device.mark_failed(now=1.0) == [live[1].pid]
        assert not device.is_idle and device.compute_processes() == []
