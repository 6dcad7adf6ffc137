"""GpuComputationMapper — the paper's Pseudocode 2 logic."""


import pytest

from repro.core.allocation import MemoryAllocationStrategy
from repro.core.mapper import GpuComputationMapper
from repro.galaxy.job import GalaxyJob
from repro.galaxy.tool_xml import parse_tool_xml


def gpu_tool(version="0"):
    attr = f' version="{version}"' if version else ""
    return parse_tool_xml(
        f'<tool id="g"><requirements>'
        f'<requirement type="compute"{attr}>gpu</requirement>'
        f"</requirements><command>racon_gpu</command></tool>"
    )


CPU_TOOL = parse_tool_xml('<tool id="c"><command>racon</command></tool>')


class UncachedMapper(GpuComputationMapper):
    """The reference the caches are held against: every probe runs."""

    def _cache_key(self):
        return None


class TestPrepareEnvironment:
    def test_gpu_tool_on_gpu_host(self, host):
        mapper = GpuComputationMapper(host)
        env = mapper.prepare_environment(GalaxyJob(tool=gpu_tool("0")))
        assert env["GALAXY_GPU_ENABLED"] == "true"
        assert env["CUDA_VISIBLE_DEVICES"] == "0"

    def test_cpu_tool_stays_cpu(self, host):
        mapper = GpuComputationMapper(host)
        env = mapper.prepare_environment(GalaxyJob(tool=CPU_TOOL))
        assert env == {"GALAXY_GPU_ENABLED": "false"}

    def test_gpu_tool_without_host_degrades(self):
        mapper = GpuComputationMapper(host=None)
        env = mapper.prepare_environment(GalaxyJob(tool=gpu_tool()))
        assert env["GALAXY_GPU_ENABLED"] == "false"
        assert "CUDA_VISIBLE_DEVICES" not in env

    def test_busy_requested_device_redirected(self, host):
        host.launch_process("other", cuda_visible_devices="0")
        mapper = GpuComputationMapper(host)
        env = mapper.prepare_environment(GalaxyJob(tool=gpu_tool("0")))
        assert env["CUDA_VISIBLE_DEVICES"] == "1"

    def test_memory_strategy_pluggable(self, host):
        host.launch_process("a", cuda_visible_devices="0")
        host.launch_process("b", cuda_visible_devices="1")
        host.device(1).alloc(2 * 1024**3, pid=1)
        mapper = GpuComputationMapper(host, strategy=MemoryAllocationStrategy())
        env = mapper.prepare_environment(GalaxyJob(tool=gpu_tool("1")))
        assert env["CUDA_VISIBLE_DEVICES"] == "0"

    def test_no_gpu_ids_preference_exposes_available(self, host):
        mapper = GpuComputationMapper(host)
        env = mapper.prepare_environment(GalaxyJob(tool=gpu_tool(version="")))
        assert env["CUDA_VISIBLE_DEVICES"] == "0,1"


class TestAuditTrail:
    def test_history_records_decisions(self, host):
        mapper = GpuComputationMapper(host)
        mapper.prepare_environment(GalaxyJob(tool=gpu_tool("1")))
        mapper.prepare_environment(GalaxyJob(tool=CPU_TOOL))
        assert len(mapper.history) == 2
        assert mapper.history[0].gpu_enabled
        assert mapper.history[0].requested_ids == ["1"]
        assert not mapper.history[1].gpu_enabled
        assert mapper.history[1].decision is None

    def test_last_decision_skips_cpu_jobs(self, host):
        mapper = GpuComputationMapper(host)
        mapper.prepare_environment(GalaxyJob(tool=gpu_tool("1")))
        mapper.prepare_environment(GalaxyJob(tool=CPU_TOOL))
        assert mapper.last_decision().gpu_ids == ("1",)

    def test_last_decision_none_initially(self, host):
        assert GpuComputationMapper(host).last_decision() is None

    def test_gpu_count_via_nvml(self, host):
        assert GpuComputationMapper(host).gpu_count() == 2
        assert GpuComputationMapper(None).gpu_count() == 0


class TestSnapshotCache:
    def test_same_instant_burst_costs_one_probe(self, host):
        mapper = GpuComputationMapper(host)
        envs = [
            mapper.prepare_environment(GalaxyJob(tool=gpu_tool(version="")))
            for _ in range(20)
        ]
        assert mapper.snapshot_probes == 1
        assert mapper.snapshot_cache_hits == 19
        assert all(env["CUDA_VISIBLE_DEVICES"] == "0,1" for env in envs)

    def test_burst_decisions_match_uncached_mapper(self, host):
        from repro.gpusim.host import make_k80_host

        cached = GpuComputationMapper(host)
        uncached = UncachedMapper(make_k80_host())
        for requested in ("0", "1", "", "0", "1"):
            tool = gpu_tool(version=requested)
            assert cached.prepare_environment(
                GalaxyJob(tool=tool)
            ) == uncached.prepare_environment(GalaxyJob(tool=tool))
        assert uncached.snapshot_probes == 5
        assert uncached.snapshot_cache_hits == 0
        assert cached.snapshot_probes == 1

    def test_uncached_mapper_probes_every_time(self, host):
        mapper = UncachedMapper(host)
        for _ in range(3):
            mapper.prepare_environment(GalaxyJob(tool=gpu_tool("0")))
        assert mapper.snapshot_probes == 3
        assert mapper.snapshot_cache_hits == 0

    def test_clock_advance_invalidates(self, host):
        mapper = GpuComputationMapper(host)
        mapper.prepare_environment(GalaxyJob(tool=gpu_tool("0")))
        host.clock.advance(1.0)
        mapper.prepare_environment(GalaxyJob(tool=gpu_tool("0")))
        assert mapper.snapshot_probes == 2

    def test_memory_alloc_and_free_invalidate(self, host):
        mapper = GpuComputationMapper(host)
        mapper.prepare_environment(GalaxyJob(tool=gpu_tool("0")))
        allocation = host.device(0).alloc(512 * 1024 * 1024, pid=4242)
        mapper.prepare_environment(GalaxyJob(tool=gpu_tool("0")))
        assert mapper.snapshot_probes == 2
        host.device(0).free(allocation)
        mapper.prepare_environment(GalaxyJob(tool=gpu_tool("0")))
        assert mapper.snapshot_probes == 3

    def test_process_launch_invalidates_and_redirects(self, host):
        """The cached snapshot must not hide a process that appeared
        between two same-instant submissions."""
        mapper = GpuComputationMapper(host)
        env_before = mapper.prepare_environment(GalaxyJob(tool=gpu_tool("0")))
        assert env_before["CUDA_VISIBLE_DEVICES"] == "0"
        host.launch_process("other", cuda_visible_devices="0")
        env_after = mapper.prepare_environment(GalaxyJob(tool=gpu_tool("0")))
        assert mapper.snapshot_probes == 2
        assert env_after["CUDA_VISIBLE_DEVICES"] == "1"

    def test_injected_device_loss_invalidates(self, host):
        mapper = GpuComputationMapper(host)
        env = mapper.prepare_environment(GalaxyJob(tool=gpu_tool(version="")))
        assert env["CUDA_VISIBLE_DEVICES"] == "0,1"
        host.device(1).mark_failed(now=host.clock.now, xid=79)
        env = mapper.prepare_environment(GalaxyJob(tool=gpu_tool(version="")))
        assert mapper.snapshot_probes == 2
        assert "1" not in env["CUDA_VISIBLE_DEVICES"].split(",")

    def test_pending_nvml_flake_invalidates(self, host):
        """An injected-but-unconsumed flake must bust the cache: the next
        probe has to actually hit the flaky NVML surface."""
        from repro.gpusim.errors import NVMLError

        mapper = GpuComputationMapper(host)
        mapper.prepare_environment(GalaxyJob(tool=gpu_tool("0")))
        host.faults.inject_nvml_error(NVMLError.NVML_ERROR_TIMEOUT)
        with pytest.raises(NVMLError):
            mapper.prepare_environment(GalaxyJob(tool=gpu_tool("0")))

    def test_degraded_accounting_identical_with_and_without_cache(self):
        """Under NVML flakes the resilient mapper's degradation behaviour
        (which jobs fall to CPU, how many queries were absorbed) must be
        byte-identical whether or not the cache is on."""
        from repro.core.health import DeviceHealthTracker
        from repro.core.retry import DEFAULT_NVML_RETRY
        from repro.gpusim.errors import NVMLError
        from repro.gpusim.host import make_k80_host

        outcomes = []
        for mapper_class in (GpuComputationMapper, UncachedMapper):
            host = make_k80_host()
            mapper = mapper_class(host, health=DeviceHealthTracker())
            # Enough flakes to spend the whole retry budget of one query.
            host.faults.inject_nvml_error(
                NVMLError.NVML_ERROR_TIMEOUT,
                count=DEFAULT_NVML_RETRY.max_attempts,
            )
            envs = [
                mapper.prepare_environment(GalaxyJob(tool=gpu_tool(version="")))
                for _ in range(4)
            ]
            outcomes.append(
                (
                    [env["GALAXY_GPU_ENABLED"] for env in envs],
                    mapper.degraded_queries,
                    [record.gpu_enabled for record in mapper.history],
                )
            )
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1] == 1  # exactly one query degraded
