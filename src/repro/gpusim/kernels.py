"""Mechanistic kernel and PCIe-transfer timing model.

The paper's performance story decomposes into a handful of mechanisms:

* **kernel time** — compute-bound (FLOPs over achievable throughput) or
  memory-bound (bytes over device bandwidth), whichever dominates, scaled
  by SM occupancy;
* **transfer time** — the 17 GB Racon dataset streamed host<->device in
  chunks over PCIe accounts for the bulk of the ~40 s CUDA API overhead;
* **synchronisation** — ``cudaStreamSynchronize`` calls dominate the
  NVProf *call-count* hotspot charts (Figs. 4 and 6);
* **allocation** — ``cudaMalloc`` of the working set costs ~2 s in the
  paper's Racon breakdown.

All durations advance the host's virtual clock, so a per-second monitor
scheduled on that clock observes utilisation *during* kernels.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, NamedTuple, Sequence

from repro.gpusim.device import GPUDevice
from repro.gpusim.errors import DeviceLostError
from repro.gpusim.host import GPUHost
from repro.gpusim.memory import Allocation
from repro.gpusim.profiler import CudaProfiler


class MemcpyKind(str, enum.Enum):
    """Direction of a ``cudaMemcpy``, as NVProf names them."""

    HOST_TO_DEVICE = "HtoD"
    DEVICE_TO_HOST = "DtoH"
    DEVICE_TO_DEVICE = "DtoD"


@dataclass(frozen=True)
class KernelLaunch:
    """Static description of one device-kernel launch.

    Parameters mirror what a CUDA programmer controls (grid/block shape)
    plus the two quantities the roofline model needs (FLOPs and bytes).
    """

    name: str
    grid_blocks: int
    threads_per_block: int
    flops: float
    bytes_read: float
    bytes_written: float

    def __post_init__(self) -> None:
        if self.grid_blocks <= 0:
            raise ValueError("grid_blocks must be positive")
        if self.threads_per_block <= 0:
            raise ValueError("threads_per_block must be positive")

    @property
    def total_bytes(self) -> float:
        """Total device-memory traffic of the kernel."""
        return self.bytes_read + self.bytes_written

    @property
    def total_threads(self) -> int:
        """Total threads across the grid."""
        return self.grid_blocks * self.threads_per_block


@dataclass
class KernelExecution:
    """Outcome of one simulated kernel execution."""

    kernel: KernelLaunch
    duration: float
    compute_time: float
    memory_time: float
    occupancy: float
    start_time: float

    @property
    def memory_bound(self) -> bool:
        """True when the roofline put the kernel on the bandwidth side."""
        return self.memory_time >= self.compute_time


class PricedStep(NamedTuple):
    """One CUDA call, priced once and runnable any number of times.

    Everything :meth:`KernelTimingModel.launch`, ``memcpy`` and
    ``synchronize`` compute before touching the device: the ``kind``
    (``"kernel"``, ``"memcpy"`` or ``"sync"``) that decides what the
    call writes to the device's telemetry, the duration, a kernel's SM
    and memory utilisation, the profiler record's name, category and
    details, and the ``operation + detail`` a device-lost error names.
    """

    kind: str
    name: str
    category: str
    duration: float
    operation: str
    detail: str
    sm_utilization: float
    mem_utilization: float
    details: dict[str, Any]


#: Fixed per-launch driver overhead (microseconds range on real hardware).
KERNEL_LAUNCH_OVERHEAD_S = 6.0e-6
#: Fixed latency of a PCIe transaction, independent of size.
PCIE_LATENCY_S = 12.0e-6
#: Fraction of peak device bandwidth/throughput real kernels achieve.
ACHIEVABLE_FRACTION = 0.70
#: Fixed cost of a stream synchronisation call.
SYNC_CALL_S = 25.0e-6
#: cudaMalloc cost: base latency plus a per-GiB page-mapping term.  The
#: paper reports ~2 s for the Racon working-set allocation.
MALLOC_BASE_S = 1.0e-4
MALLOC_PER_GIB_S = 0.25

GIB = 1024**3


class KernelTimingModel:
    """Executes kernel launches / transfers against one device, in virtual time.

    Parameters
    ----------
    host:
        The GPU host whose clock is advanced.
    device:
        The die on which kernels run.
    profiler:
        Optional NVProf-like collector; every API call is recorded.
    pid:
        Host PID the activity is attributed to.
    """

    def __init__(
        self,
        host: GPUHost,
        device: GPUDevice,
        profiler: CudaProfiler | None = None,
        pid: int = 0,
        pcie_efficiency: float = 1.0,
    ) -> None:
        if not 0 < pcie_efficiency <= 1.0:
            raise ValueError("pcie_efficiency must be in (0, 1]")
        self.host = host
        self.device = device
        self.profiler = profiler
        self.pid = pid
        #: Fraction of the link's pinned-memory bandwidth actually
        #: achieved.  Unpinned, chunk-staged transfers (what Racon-GPU's
        #: 17 GB streaming does) run far below the pinned ceiling — the
        #: paper measures ~40 s of transfer+sync overhead for 2x17 GB.
        self.pcie_efficiency = pcie_efficiency

    # ------------------------------------------------------------------ #
    # roofline
    # ------------------------------------------------------------------ #
    def occupancy(self, kernel: KernelLaunch) -> float:
        """Fraction of the device the launch can keep busy.

        A grid with fewer blocks than SMs leaves multiprocessors idle —
        this is why the paper sweeps Racon's *batch* parameter: more
        batches means more blocks and better scaling (§II-C: "higher
        number of blocks ... allows better scaling").  Beyond one block
        per SM, occupancy saturates at the warp-scheduler limit.
        """
        arch = self.device.arch
        block_limited = min(1.0, kernel.grid_blocks / arch.sm_count)
        warps_per_block = max(
            1, (kernel.threads_per_block + arch.threads_per_warp - 1) // arch.threads_per_warp
        )
        warp_limited = min(1.0, warps_per_block / arch.warp_schedulers_per_sm)
        return max(0.05, block_limited * max(warp_limited, 0.5))

    def kernel_times(self, kernel: KernelLaunch) -> tuple[float, float, float]:
        """(compute_time, memory_time, occupancy) for a launch."""
        occ = self.occupancy(kernel)
        arch = self.device.arch
        achievable_gflops = arch.peak_gflops * ACHIEVABLE_FRACTION * occ
        compute_time = kernel.flops / (achievable_gflops * 1e9)
        achievable_bw = arch.memory_bandwidth_gbps * ACHIEVABLE_FRACTION
        memory_time = kernel.total_bytes / (achievable_bw * 1e9)
        return compute_time, memory_time, occ

    # ------------------------------------------------------------------ #
    # simulated CUDA API
    # ------------------------------------------------------------------ #
    def _require_device(self, operation: str, detail: str = "") -> None:
        """Every CUDA call on a lost device fails.

        When an XID event kills the device mid-run, ``mark_failed`` has
        already detached the process and reclaimed its memory — so this
        check must come *before* any allocator access (including
        ``cudaFree``), otherwise the tool would double-free memory the
        driver reclaimed.  The error names ``operation + detail``, joined
        only when it is raised.
        """
        if not self.device.healthy:
            raise DeviceLostError(self.device.minor_number, operation + detail)

    def price_kernel(self, kernel: KernelLaunch) -> PricedStep:
        """Price a launch of ``kernel`` once, for :meth:`replay`."""
        return self._kernel_step(kernel, *self.kernel_times(kernel))

    def _kernel_step(
        self,
        kernel: KernelLaunch,
        compute_time: float,
        memory_time: float,
        occupancy: float,
    ) -> PricedStep:
        duration = max(compute_time, memory_time) + KERNEL_LAUNCH_OVERHEAD_S
        return PricedStep(
            "kernel",
            kernel.name,
            "kernel",
            duration,
            "kernel launch ",
            kernel.name,
            min(100.0, 100.0 * occupancy),
            min(100.0, 100.0 * (memory_time / duration if duration > 0 else 0.0)),
            {"compute_time": compute_time, "memory_time": memory_time},
        )

    def price_memcpy(self, kind: MemcpyKind, nbytes: float) -> PricedStep:
        """Price a ``nbytes`` PCIe transfer once, for :meth:`replay`."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        bandwidth = self.device.arch.pcie_effective_gbps * self.pcie_efficiency * 1e9
        direction = kind.value
        return PricedStep(
            "memcpy",
            f"cudaMemcpy{direction}",
            f"memcpy_{direction.lower()}",
            PCIE_LATENCY_S + nbytes / bandwidth,
            "cudaMemcpy",
            direction,
            0.0,
            0.0,
            {"bytes": nbytes},
        )

    @staticmethod
    def price_sync(name: str = "cudaStreamSynchronize") -> PricedStep:
        """Price a synchronisation call once, for :meth:`replay`."""
        return PricedStep("sync", name, "sync", SYNC_CALL_S, name, "", 0.0, 0.0, {})

    def _step(self, step: PricedStep) -> float:
        """Run one priced call; returns the instant it started.

        The device check comes first, then the telemetry a monitor
        sampling mid-call sees, the clock advance (timers and span
        listeners fire inside it), the busy time and the profiler record.
        """
        self._require_device(step.operation, step.detail)
        device = self.device
        clock = self.host.clock
        start = clock.now
        kind = step.kind
        if kind == "kernel":
            device.sm_utilization = step.sm_utilization
            device.mem_utilization = step.mem_utilization
        elif kind == "memcpy":
            device.mem_utilization = max(device.mem_utilization, 15.0)
        clock.advance(step.duration)
        if kind == "kernel":
            device.busy_seconds += step.duration
        if self.profiler is not None:
            self.profiler.record_api(
                name=step.name,
                category=step.category,
                start=start,
                duration=step.duration,
                device_index=device.minor_number,
                details=dict(step.details),
            )
        return start

    def replay(
        self, cycle: Sequence[tuple[str | None, Sequence[PricedStep]]], n: int
    ) -> dict[str, float]:
        """Run a cycle of priced calls ``n`` times, each call as one
        :meth:`launch` / :meth:`memcpy` / :meth:`synchronize` would.

        ``cycle`` is a sequence of ``(key, steps)`` groups.  The clock
        time each pass of a keyed group spans is added to that key's
        total, group by group in cycle order, so a caller that summed
        ``clock.now - t0`` around the same groups gets the same floats.
        Returns the totals (``0.0`` for a key no pass reached).
        """
        clock = self.host.clock
        step = self._step
        totals = {key: 0.0 for key, _ in cycle if key is not None}
        for _ in range(n):
            for key, steps in cycle:
                t0 = clock.now
                for priced in steps:
                    step(priced)
                if key is not None:
                    totals[key] += clock.now - t0
        return totals

    def launch(self, kernel: KernelLaunch) -> KernelExecution:
        """Execute ``kernel``: advance the clock, update device telemetry."""
        compute_time, memory_time, occ = self.kernel_times(kernel)
        step = self._kernel_step(kernel, compute_time, memory_time, occ)
        return KernelExecution(
            kernel=kernel,
            duration=step.duration,
            compute_time=compute_time,
            memory_time=memory_time,
            occupancy=occ,
            start_time=self._step(step),
        )

    def memcpy(self, kind: MemcpyKind, nbytes: float) -> float:
        """Transfer ``nbytes`` over PCIe; returns the duration."""
        step = self.price_memcpy(kind, nbytes)
        self._step(step)
        return step.duration

    def synchronize(self, name: str = "cudaStreamSynchronize") -> float:
        """A synchronisation API call; returns the duration."""
        self._step(self.price_sync(name))
        return SYNC_CALL_S

    def malloc(self, nbytes: int, tag: str = "") -> Allocation:
        """``cudaMalloc``: charges device memory and allocation latency."""
        self._require_device("cudaMalloc")
        duration = MALLOC_BASE_S + MALLOC_PER_GIB_S * (nbytes / GIB)
        start = self.host.clock.now
        allocation = self.device.alloc(nbytes, self.pid, tag=tag)
        self.host.clock.advance(duration)
        if self.profiler is not None:
            self.profiler.record_api(
                name="cudaMalloc",
                category="alloc",
                start=start,
                duration=duration,
                device_index=self.device.minor_number,
                details={"bytes": nbytes},
            )
        return allocation

    def api_call(
        self, name: str, duration: float, category: str = "api"
    ) -> float:
        """An aggregated CUDA API phase: advances the clock and records.

        Paper-scale executors use this for call classes whose individual
        events are too numerous to simulate one by one (e.g. the
        hundreds of millions of small kernel launches a PyTorch run
        issues) but whose aggregate share shapes the NVProf hotspot
        charts.
        """
        if duration < 0:
            raise ValueError("duration must be non-negative")
        self._require_device(name)
        start = self.host.clock.now
        self.host.clock.advance(duration)
        if self.profiler is not None:
            self.profiler.record_api(
                name=name,
                category=category,
                start=start,
                duration=duration,
                device_index=self.device.minor_number,
            )
        return duration

    def free(self, allocation: Allocation) -> None:
        """``cudaFree``: releases device memory (negligible latency)."""
        self._require_device("cudaFree")
        self.device.free(allocation)
        if self.profiler is not None:
            self.profiler.record_api(
                name="cudaFree",
                category="alloc",
                start=self.host.clock.now,
                duration=0.0,
                device_index=self.device.minor_number,
                details={"bytes": allocation.size},
            )
