"""get_gpu_usage (paper Pseudocode 1) against live host state."""


from repro.core.gpu_usage import get_gpu_usage, get_gpu_usage_snapshot


class TestGetGpuUsage:
    def test_idle_host_all_available(self, host):
        available, all_gpus = get_gpu_usage(host)
        assert all_gpus == ["0", "1"]
        assert available == ["0", "1"]

    def test_busy_device_excluded(self, host):
        host.launch_process("tool", cuda_visible_devices="0")
        available, all_gpus = get_gpu_usage(host)
        assert all_gpus == ["0", "1"]
        assert available == ["1"]

    def test_fully_busy_host(self, host):
        host.launch_process("a", cuda_visible_devices="0")
        host.launch_process("b", cuda_visible_devices="1")
        available, all_gpus = get_gpu_usage(host)
        assert available == []
        assert all_gpus == ["0", "1"]

    def test_availability_restored_on_exit(self, host):
        proc = host.launch_process("tool", cuda_visible_devices="1")
        host.terminate_process(proc.pid)
        available, _ = get_gpu_usage(host)
        assert available == ["0", "1"]


class TestSnapshot:
    def test_proc_gpu_dict_matches_placement(self, host):
        a = host.launch_process("a", cuda_visible_devices="0")
        b = host.launch_process("b", cuda_visible_devices="0")
        snapshot = get_gpu_usage_snapshot(host)
        assert snapshot.proc_gpu_dict == {"0": [str(a.pid), str(b.pid)], "1": []}

    def test_fb_used_tracks_contexts(self, host):
        host.launch_process("a", cuda_visible_devices="1")
        snapshot = get_gpu_usage_snapshot(host)
        assert snapshot.fb_used_mib == {"0": 0, "1": 60}

    def test_min_memory_gpu(self, host):
        host.launch_process("a", cuda_visible_devices="0")
        snapshot = get_gpu_usage_snapshot(host)
        assert snapshot.min_memory_gpu() == "1"

    def test_min_memory_gpu_ties_low_id(self, host):
        assert get_gpu_usage_snapshot(host).min_memory_gpu() == "0"

    def test_multi_device_process_counted_on_each(self, host):
        proc = host.launch_process("wide", cuda_visible_devices="0,1")
        snapshot = get_gpu_usage_snapshot(host)
        assert snapshot.proc_gpu_dict["0"] == [str(proc.pid)]
        assert snapshot.proc_gpu_dict["1"] == [str(proc.pid)]
        assert snapshot.available_gpus == []
