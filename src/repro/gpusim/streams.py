"""CUDA streams: asynchronous copy/compute with engine overlap.

The paper's Racon-GPU measurement attributes ~40 s to "CUDA API calls to
transfer input data and results from and to GPU ... and CUDA kernel
synchronization" — a *synchronous* chunk pipeline (copy, compute, copy,
repeat).  Kepler-class devices have independent copy engines (one per
direction) beside the compute engine, so a stream-pipelined
implementation can hide most of that transfer time behind kernel
execution.  This module models exactly that: per-stream ordering,
per-engine serialisation, and overlap across engines — used by the
`ablation_streams` benchmark to quantify the head-room GYAN's §VI-A
breakdown leaves on the table.

Semantics implemented:

* operations issued to one stream execute in issue order;
* each engine (H2D copy, D2H copy, compute) runs one operation at a
  time, across all streams;
* an operation starts at ``max(issue time, stream tail, engine tail)``;
* ``synchronize()`` advances the host clock to the last completion
  (``cudaDeviceSynchronize``); per-stream sync waits only for that
  stream.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.gpusim.kernels import (
    KERNEL_LAUNCH_OVERHEAD_S,
    PCIE_LATENCY_S,
    KernelLaunch,
    KernelTimingModel,
    MemcpyKind,
    SYNC_CALL_S,
)


@dataclass
class StreamOp:
    """One asynchronous operation as scheduled."""

    name: str
    stream_id: int
    engine: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        """Scheduled execution time."""
        return self.end - self.start


class CudaStream:
    """An ordered queue of device operations."""

    _ids = itertools.count(1)

    def __init__(self) -> None:
        self.stream_id = next(CudaStream._ids)
        #: Completion time of the last operation issued to this stream.
        self.tail: float = 0.0
        self.ops: list[StreamOp] = []


class StreamEngine:
    """Schedules async operations over the device's hardware engines.

    Parameters
    ----------
    timing:
        The synchronous timing model supplying durations (roofline for
        kernels, PCIe for copies) and the profiler/clock bindings.
    """

    #: Engine names: Kepler has two copy engines and one compute engine.
    ENGINES = ("copy_h2d", "copy_d2h", "compute")

    def __init__(self, timing: KernelTimingModel) -> None:
        self.timing = timing
        self._engine_tail: dict[str, float] = {name: 0.0 for name in self.ENGINES}
        self.ops: list[StreamOp] = []

    # ------------------------------------------------------------------ #
    def _schedule(
        self, stream: CudaStream, name: str, engine: str, duration: float
    ) -> StreamOp:
        now = self.timing.host.clock.now
        start = max(now, stream.tail, self._engine_tail[engine])
        op = StreamOp(
            name=name,
            stream_id=stream.stream_id,
            engine=engine,
            start=start,
            end=start + duration,
        )
        stream.tail = op.end
        self._engine_tail[engine] = op.end
        stream.ops.append(op)
        self.ops.append(op)
        if self.timing.profiler is not None:
            self.timing.profiler.record_api(
                name=name,
                category="kernel" if engine == "compute" else f"memcpy_{engine[-3:]}",
                start=op.start,
                duration=duration,
                device_index=self.timing.device.minor_number,
                details={"stream": stream.stream_id, "engine": engine},
            )
        return op

    # ------------------------------------------------------------------ #
    def memcpy_async(
        self, kind: MemcpyKind, nbytes: float, stream: CudaStream
    ) -> StreamOp:
        """``cudaMemcpyAsync``: queued, non-blocking."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        bandwidth = (
            self.timing.device.arch.pcie_effective_gbps
            * self.timing.pcie_efficiency
            * 1e9
        )
        duration = PCIE_LATENCY_S + nbytes / bandwidth
        engine = (
            "copy_h2d" if kind is MemcpyKind.HOST_TO_DEVICE else "copy_d2h"
        )
        return self._schedule(stream, f"cudaMemcpyAsync{kind.value}", engine, duration)

    def launch_async(self, kernel: KernelLaunch, stream: CudaStream) -> StreamOp:
        """Asynchronous kernel launch: queued on the compute engine."""
        compute_time, memory_time, _occ = self.timing.kernel_times(kernel)
        duration = max(compute_time, memory_time) + KERNEL_LAUNCH_OVERHEAD_S
        op = self._schedule(stream, kernel.name, "compute", duration)
        self.timing.device.busy_seconds += duration
        return op

    # ------------------------------------------------------------------ #
    def synchronize(self, stream: CudaStream | None = None) -> float:
        """Block the host until the stream (or whole device) drains.

        Returns the host time after synchronisation.
        """
        if stream is not None:
            target = stream.tail
            name = "cudaStreamSynchronize"
        else:
            target = max(self._engine_tail.values(), default=0.0)
            name = "cudaDeviceSynchronize"
        clock = self.timing.host.clock
        wait_start = clock.now
        if target > clock.now:
            clock.advance_to(target)
        clock.advance(SYNC_CALL_S)
        if self.timing.profiler is not None:
            self.timing.profiler.record_api(
                name=name,
                category="sync",
                start=wait_start,
                duration=clock.now - wait_start,
                device_index=self.timing.device.minor_number,
            )
        return clock.now

    # ------------------------------------------------------------------ #
    def engine_busy_seconds(self) -> dict[str, float]:
        """Total scheduled time per engine (overlap diagnostics)."""
        busy: dict[str, float] = {name: 0.0 for name in self.ENGINES}
        for op in self.ops:
            busy[op.engine] += op.duration
        return busy
