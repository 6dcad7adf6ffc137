"""Kernel timing model: roofline, occupancy, transfers, allocation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.monitor import GPUUsageMonitor
from repro.galaxy.job import GalaxyJob
from repro.galaxy.tool_xml import parse_tool_xml
from repro.gpusim.errors import DeviceLostError
from repro.gpusim.host import make_k80_host
from repro.gpusim.kernels import (
    KernelLaunch,
    KernelTimingModel,
    MALLOC_PER_GIB_S,
    MemcpyKind,
)
from repro.gpusim.profiler import CudaProfiler

GIB = 1024**3


@pytest.fixture
def timing(host):
    proc = host.launch_process("tool", cuda_visible_devices="0")
    return KernelTimingModel(
        host, host.device(0), profiler=CudaProfiler(), pid=proc.pid
    )


class TestKernelLaunchValidation:
    def test_positive_geometry_required(self):
        with pytest.raises(ValueError):
            KernelLaunch("k", 0, 64, 1, 1, 1)
        with pytest.raises(ValueError):
            KernelLaunch("k", 1, 0, 1, 1, 1)

    def test_derived_quantities(self):
        kernel = KernelLaunch("k", 4, 128, flops=10, bytes_read=6, bytes_written=4)
        assert kernel.total_bytes == 10
        assert kernel.total_threads == 512


class TestOccupancy:
    def test_more_blocks_never_less_occupancy(self, timing):
        occs = [
            timing.occupancy(KernelLaunch("k", blocks, 256, 1, 1, 1))
            for blocks in (1, 2, 4, 8, 15, 30)
        ]
        assert occs == sorted(occs)
        assert occs[-1] <= 1.0

    def test_single_block_underutilizes(self, timing):
        """§II-C: more blocks per kernel means better scaling."""
        one = timing.occupancy(KernelLaunch("k", 1, 256, 1, 1, 1))
        full = timing.occupancy(KernelLaunch("k", 60, 256, 1, 1, 1))
        assert one < full


class TestRoofline:
    def test_memory_bound_kernel(self, timing):
        kernel = KernelLaunch("k", 60, 256, flops=1e6, bytes_read=8e9, bytes_written=0)
        execution = timing.launch(kernel)
        assert execution.memory_bound
        assert execution.duration >= execution.memory_time

    def test_compute_bound_kernel(self, timing):
        kernel = KernelLaunch("k", 60, 256, flops=1e13, bytes_read=1e3, bytes_written=0)
        execution = timing.launch(kernel)
        assert not execution.memory_bound

    def test_launch_advances_clock_by_duration(self, timing, host):
        before = host.clock.now
        execution = timing.launch(KernelLaunch("k", 60, 256, 1e9, 1e9, 0))
        assert host.clock.now == pytest.approx(before + execution.duration)

    def test_launch_sets_device_utilization(self, timing, host):
        timing.launch(KernelLaunch("k", 60, 256, 1e9, 1e9, 0))
        assert host.device(0).sm_utilization > 0
        assert host.device(0).busy_seconds > 0

    @given(
        blocks=st.integers(1, 64),
        threads=st.integers(32, 1024),
        flops=st.floats(1e3, 1e12),
        nbytes=st.floats(1e3, 1e10),
    )
    def test_duration_positive_and_bounded_below(self, blocks, threads, flops, nbytes):
        from repro.gpusim.host import make_k80_host

        host = make_k80_host()
        timing = KernelTimingModel(host, host.device(0))
        compute, memory, occ = timing.kernel_times(
            KernelLaunch("k", blocks, threads, flops, nbytes, 0)
        )
        assert compute > 0 and memory > 0 and 0 < occ <= 1


class TestMemcpy:
    def test_duration_scales_with_bytes(self, timing):
        small = timing.memcpy(MemcpyKind.HOST_TO_DEVICE, 1e6)
        large = timing.memcpy(MemcpyKind.HOST_TO_DEVICE, 1e9)
        assert large > small * 100

    def test_pcie_efficiency_slows_transfers(self, host):
        pinned = KernelTimingModel(host, host.device(0), pcie_efficiency=1.0)
        staged = KernelTimingModel(host, host.device(0), pcie_efficiency=0.1)
        assert staged.memcpy(MemcpyKind.HOST_TO_DEVICE, 1e9) > 9 * pinned.memcpy(
            MemcpyKind.HOST_TO_DEVICE, 1e9
        )

    def test_negative_bytes_rejected(self, timing):
        with pytest.raises(ValueError):
            timing.memcpy(MemcpyKind.DEVICE_TO_HOST, -1)

    def test_invalid_efficiency_rejected(self, host):
        with pytest.raises(ValueError):
            KernelTimingModel(host, host.device(0), pcie_efficiency=0.0)
        with pytest.raises(ValueError):
            KernelTimingModel(host, host.device(0), pcie_efficiency=1.5)


class TestMallocAndApi:
    def test_malloc_charges_memory_and_time(self, timing, host):
        before = host.clock.now
        allocation = timing.malloc(8 * GIB)
        assert host.device(0).memory.used >= 8 * GIB
        # ~2 s for 8 GiB: the paper's Racon allocation phase.
        assert host.clock.now - before == pytest.approx(
            8 * MALLOC_PER_GIB_S, rel=0.01
        )
        timing.free(allocation)
        assert host.device(0).memory.used < GIB

    def test_synchronize_records_and_advances(self, timing, host):
        before = host.clock.now
        timing.synchronize()
        assert host.clock.now > before
        assert timing.profiler.call_count("cudaStreamSynchronize") == 1

    def test_api_call_aggregation(self, timing, host):
        timing.api_call("cudaLaunchKernel", 1.5, category="launch")
        assert host.clock.now >= 1.5
        assert timing.profiler.total_time("launch") == pytest.approx(1.5)

    def test_api_call_rejects_negative(self, timing):
        with pytest.raises(ValueError):
            timing.api_call("x", -1.0)


# A call of a replayed cycle: ("kernel", name, blocks, seconds),
# ("memcpy", kind, bytes) or ("sync", name).
_CALLS = st.one_of(
    st.tuples(
        st.just("kernel"),
        st.sampled_from(["generatePOAKernel", "sgemm_128x64_nn"]),
        st.integers(1, 120),
        st.floats(4e-6, 12.0),
    ),
    st.tuples(
        st.just("memcpy"),
        st.sampled_from(list(MemcpyKind)),
        st.floats(0.0, 1.6e9),
    ),
    st.tuples(
        st.just("sync"),
        st.sampled_from(["cudaStreamSynchronize", "cudaDeviceSynchronize"]),
    ),
)
_GROUPS = st.lists(
    st.tuples(st.sampled_from([None, "transfer", "kernels"]), st.lists(_CALLS, max_size=3)),
    min_size=1,
    max_size=4,
)


def _kernel(name, blocks, seconds):
    return KernelLaunch(
        name,
        blocks,
        256,
        flops=seconds * 1e11,
        bytes_read=seconds * 9e10,
        bytes_written=seconds * 3e10,
    )


def _drive(groups, n, fail_at, replayed):
    """Run ``groups`` ``n`` times on a fresh monitored host, by
    :meth:`KernelTimingModel.replay` or one call at a time with the
    ``clock.now - t0`` sums a caller keeps; returns everything either
    way can observe."""
    host = make_k80_host()
    monitor = GPUUsageMonitor(host)
    job = GalaxyJob(tool=parse_tool_xml('<tool id="t"><command>x</command></tool>'))
    host.clock.advance(1.2)
    monitor.start(job)
    timing = KernelTimingModel(
        host, host.device(0), profiler=CudaProfiler(), pcie_efficiency=0.075
    )
    # Timers fire inside the calls' clock advances.
    host.clock.call_at(3.6, lambda now: setattr(host.device(0), "mem_utilization", 5.0))
    if fail_at is not None:
        host.clock.call_at(fail_at, lambda now: host.device(0).mark_failed(now))
    kernels = {}
    calls = []
    for key, specs in groups:
        group = []
        for spec in specs:
            if spec[0] == "kernel":
                kernel = kernels.setdefault(spec[1:], _kernel(*spec[1:]))
                group.append((timing.launch, timing.price_kernel, (kernel,)))
            elif spec[0] == "memcpy":
                group.append((timing.memcpy, timing.price_memcpy, spec[1:]))
            else:
                group.append((timing.synchronize, timing.price_sync, spec[1:]))
        calls.append((key, group))
    error = None
    totals = {key: 0.0 for key, _ in groups if key is not None}
    try:
        if replayed:
            cycle = [
                (key, [price(*args) for _, price, args in group]) for key, group in calls
            ]
            totals = timing.replay(cycle, n)
        else:
            for _ in range(n):
                for key, group in calls:
                    t0 = host.clock.now
                    for call, _, args in group:
                        call(*args)
                    if key is not None:
                        totals[key] += host.clock.now - t0
    except DeviceLostError as exc:
        error = str(exc)
        totals = None
    monitor.stop(job)
    session = monitor.session_for(job.job_id)
    return {
        "error": error,
        "totals": None if totals is None else {k: v.hex() for k, v in totals.items()},
        "now": host.clock.now.hex(),
        "times": session.times.tobytes(),
        "runs": [
            [
                bytes(getattr(series, column))
                for column in ("run_util", "run_mem", "run_fb", "run_pcie", "run_lens")
            ]
            for series in session.series
        ],
        "devices": [
            (d.busy_seconds.hex(), d.state_version, d.sm_utilization, d.mem_utilization)
            for d in host.devices
        ],
        "records": [
            (
                r.name, r.category, r.start.hex(), r.duration.hex(), r.device_index,
                sorted((k, float(v).hex()) for k, v in r.details.items()),
            )
            for r in timing.profiler.records
        ],
    }


class TestReplay:
    """A replayed cycle is the same calls made one by one: same clock
    instants, monitor runs, busy time, telemetry versions and profiler
    records, and the same per-key sums of the clock spans."""

    @settings(max_examples=60, deadline=None)
    @given(
        groups=_GROUPS,
        n=st.integers(0, 6),
        fail_at=st.none() | st.floats(1.2, 120.0),
    )
    def test_replay_equals_the_calls(self, groups, n, fail_at):
        assert _drive(groups, n, fail_at, replayed=True) == _drive(
            groups, n, fail_at, replayed=False
        )

    def test_racon_chunk_cycle(self):
        """The §VI-A chunk cycle, 68 passes with a mid-run device loss."""
        groups = [
            ("transfer", [("memcpy", MemcpyKind.HOST_TO_DEVICE, 2.5e8)]),
            (
                "kernels",
                [("kernel", "generatePOAKernel", 15, 0.19), ("kernel", "b", 15, 0.004)],
            ),
            (None, [("sync", "cudaStreamSynchronize")]),
            ("transfer", [("memcpy", MemcpyKind.DEVICE_TO_HOST, 2.5e8)]),
        ]
        for fail_at in (None, 17.0):
            replayed = _drive(groups, 68, fail_at, replayed=True)
            assert replayed == _drive(groups, 68, fail_at, replayed=False)
            assert (replayed["error"] is None) == (fail_at is None)
        assert len(replayed["records"]) > 5

    def test_replay_checks_the_device_first(self, timing, host):
        step = timing.price_memcpy(MemcpyKind.HOST_TO_DEVICE, 1e6)
        host.device(0).mark_failed()
        before = host.clock.now
        with pytest.raises(DeviceLostError, match="cudaMemcpyHtoD"):
            timing.replay([("transfer", [step])], 3)
        assert host.clock.now == before
        assert timing.profiler.records == []
