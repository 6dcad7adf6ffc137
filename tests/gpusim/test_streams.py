"""CUDA streams: ordering, engine overlap, synchronisation."""

import pytest

from repro.gpusim.host import make_k80_host
from repro.gpusim.kernels import KernelLaunch, KernelTimingModel, MemcpyKind
from repro.gpusim.profiler import CudaProfiler
from repro.gpusim.streams import CudaStream, StreamEngine

GB = 1e9


@pytest.fixture
def engine(host):
    timing = KernelTimingModel(host, host.device(0), profiler=CudaProfiler())
    return StreamEngine(timing)


def kernel(seconds_worth: float = 0.1) -> KernelLaunch:
    """A memory-bound kernel of roughly the requested duration."""
    achievable = 240e9 * 0.70
    return KernelLaunch(
        "k", 60, 256, flops=1.0, bytes_read=seconds_worth * achievable, bytes_written=0
    )


class TestOrdering:
    def test_same_stream_serialises(self, engine):
        stream = CudaStream()
        first = engine.memcpy_async(MemcpyKind.HOST_TO_DEVICE, 1 * GB, stream)
        second = engine.launch_async(kernel(), stream)
        third = engine.memcpy_async(MemcpyKind.DEVICE_TO_HOST, 1 * GB, stream)
        assert first.end <= second.start
        assert second.end <= third.start

    def test_issue_is_non_blocking(self, engine, host):
        stream = CudaStream()
        before = host.clock.now
        engine.memcpy_async(MemcpyKind.HOST_TO_DEVICE, 10 * GB, stream)
        engine.launch_async(kernel(1.0), stream)
        assert host.clock.now == before  # nothing blocked the host

    def test_engines_serialise_across_streams(self, engine):
        a, b = CudaStream(), CudaStream()
        first = engine.memcpy_async(MemcpyKind.HOST_TO_DEVICE, 1 * GB, a)
        second = engine.memcpy_async(MemcpyKind.HOST_TO_DEVICE, 1 * GB, b)
        # Same copy engine: the second transfer waits for the first.
        assert second.start >= first.end

    def test_different_engines_overlap(self, engine):
        a, b = CudaStream(), CudaStream()
        h2d = engine.memcpy_async(MemcpyKind.HOST_TO_DEVICE, 1 * GB, a)
        compute = engine.launch_async(kernel(0.2), b)
        d2h = engine.memcpy_async(MemcpyKind.DEVICE_TO_HOST, 1 * GB, b)
        # Compute on stream b starts immediately, concurrent with a's copy.
        assert compute.start < h2d.end
        # d2h uses the other copy engine but must follow b's kernel.
        assert d2h.start >= compute.end


class TestSynchronisation:
    def test_stream_sync_waits_for_that_stream_only(self, engine, host):
        a, b = CudaStream(), CudaStream()
        engine.launch_async(kernel(0.1), a)
        engine.launch_async(kernel(5.0), b)
        engine.synchronize(a)
        assert host.clock.now >= a.tail
        assert host.clock.now < b.tail

    def test_device_sync_waits_for_everything(self, engine, host):
        a, b = CudaStream(), CudaStream()
        engine.launch_async(kernel(0.5), a)
        engine.memcpy_async(MemcpyKind.HOST_TO_DEVICE, 5 * GB, b)
        engine.synchronize()
        assert host.clock.now >= a.tail
        assert host.clock.now >= b.tail

    def test_sync_recorded_in_profiler(self, engine):
        stream = CudaStream()
        engine.launch_async(kernel(0.1), stream)
        engine.synchronize(stream)
        assert engine.timing.profiler.call_count("cudaStreamSynchronize") == 1

    def test_sync_idempotent(self, engine, host):
        stream = CudaStream()
        engine.launch_async(kernel(0.1), stream)
        engine.synchronize(stream)
        t = host.clock.now
        engine.synchronize(stream)
        assert host.clock.now == pytest.approx(t, abs=1e-3)


class TestPipelineOverlap:
    def test_chunked_pipeline_beats_synchronous(self, host):
        """The A6 ablation's core claim: double-buffered streams hide
        transfer time behind compute."""
        n_chunks, chunk = 16, 0.5 * GB

        # synchronous baseline
        sync_host = make_k80_host()
        sync_timing = KernelTimingModel(sync_host, sync_host.device(0))
        for _ in range(n_chunks):
            sync_timing.memcpy(MemcpyKind.HOST_TO_DEVICE, chunk)
            sync_timing.launch(kernel(0.1))
            sync_timing.memcpy(MemcpyKind.DEVICE_TO_HOST, chunk)
        sync_total = sync_host.clock.now

        # stream-pipelined
        timing = KernelTimingModel(host, host.device(0))
        engine = StreamEngine(timing)
        streams = [CudaStream(), CudaStream()]
        for i in range(n_chunks):
            stream = streams[i % 2]
            engine.memcpy_async(MemcpyKind.HOST_TO_DEVICE, chunk, stream)
            engine.launch_async(kernel(0.1), stream)
            engine.memcpy_async(MemcpyKind.DEVICE_TO_HOST, chunk, stream)
        engine.synchronize()
        async_total = host.clock.now

        assert async_total < 0.7 * sync_total

    def test_busy_accounting(self, engine):
        stream = CudaStream()
        engine.memcpy_async(MemcpyKind.HOST_TO_DEVICE, 1 * GB, stream)
        engine.launch_async(kernel(0.2), stream)
        busy = engine.engine_busy_seconds()
        assert busy["copy_h2d"] > 0
        assert busy["compute"] > 0
        assert busy["copy_d2h"] == 0.0

    def test_negative_bytes_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.memcpy_async(MemcpyKind.HOST_TO_DEVICE, -1, CudaStream())
