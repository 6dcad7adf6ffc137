"""GPU device and architecture model.

The paper's testbed is a node with two NVIDIA **Tesla K80** boards.  Each
K80 board carries two **GK210** dies, and each die appears to the driver
as an independent device with its own minor number, framebuffer and
process table — which is why the paper's host exposes GPU minor IDs 0..3
even though there are "two GPUs" physically.  We model the *die* as
:class:`GPUDevice` and provide :class:`TESLA_K80_BOARD` as the two-die
grouping.

Architecture numbers follow the paper's §II-C description of the K80
(2,496 cores per die, 560-875 MHz, 480 GB/s board bandwidth, 24 GB board
memory, 32-thread warps, 15 SMs with 4 warp schedulers each).  The
per-die framebuffer of 11,441 MiB matches the paper's Fig. 10 console
output.
"""

from __future__ import annotations

from dataclasses import dataclass

import enum

from repro.gpusim.errors import GpuSimError, InvalidDeviceError
from repro.gpusim.memory import MIB, Allocation, MemoryAllocator
from repro.gpusim.process import GPUProcess
from repro.hotpath import hot_path


class ComputeMode(str, enum.Enum):
    """The device compute mode (``nvidia-smi -c``).

    ``DEFAULT`` allows many contexts per device — what the paper's Case 3
    scatter depends on.  ``EXCLUSIVE_PROCESS`` admits a single context;
    a second attach fails the way CUDA does on exclusive devices.
    """

    DEFAULT = "Default"
    EXCLUSIVE_PROCESS = "Exclusive_Process"
    PROHIBITED = "Prohibited"


class ComputeModeError(GpuSimError):
    """A context creation violated the device's compute mode."""


@dataclass(frozen=True)
class GPUArchitecture:
    """Static micro-architectural description of one GPU die.

    The kernel timing model (:mod:`repro.gpusim.kernels`) derives
    compute-bound and memory-bound kernel durations from these figures.
    """

    name: str
    sm_count: int
    cuda_cores: int
    threads_per_warp: int
    max_threads_per_block: int
    max_warps_per_sm: int
    warp_schedulers_per_sm: int
    base_clock_mhz: float
    boost_clock_mhz: float
    memory_bandwidth_gbps: float
    fb_memory_mib: int
    compute_capability: tuple[int, int]
    pcie_generation_max: int = 3
    pcie_link_width_max: int = 16
    power_limit_watts: float = 149.0
    #: Effective host<->device copy bandwidth in GB/s.  PCIe gen3 x16 has a
    #: 15.75 GB/s theoretical ceiling; ~12 GB/s is a realistic pinned-memory
    #: figure and reproduces the paper's ~40 s of CUDA API overhead when
    #: streaming the 17 GB Racon dataset both ways in chunks.
    pcie_effective_gbps: float = 12.0

    @property
    def peak_gflops(self) -> float:
        """Single-precision FMA peak in GFLOP/s at boost clock."""
        return 2.0 * self.cuda_cores * self.boost_clock_mhz / 1000.0

    @property
    def fb_memory_bytes(self) -> int:
        """Framebuffer capacity in bytes."""
        return self.fb_memory_mib * MIB


#: One GK210 die of a Tesla K80 board, using the paper's §II-C numbers.
TESLA_GK210 = GPUArchitecture(
    name="Tesla K80",
    sm_count=15,
    cuda_cores=2496,
    threads_per_warp=32,
    max_threads_per_block=2048,
    max_warps_per_sm=64,
    warp_schedulers_per_sm=4,
    base_clock_mhz=560.0,
    boost_clock_mhz=875.0,
    memory_bandwidth_gbps=240.0,  # 480 GB/s per board, two dies
    fb_memory_mib=11441,
    compute_capability=(3, 7),
)


class GPUDevice:
    """One simulated GPU die: framebuffer, attached processes, utilisation.

    The device is deliberately *passive*: it holds state that the NVML and
    ``nvidia-smi`` surfaces render, and the kernel timing model mutates.
    GYAN itself only ever reads this state.

    Parameters
    ----------
    minor_number:
        The device's index as the driver numbers it (``/dev/nvidia<N>``);
        what the paper's wrapper files select through the requirement
        ``version`` tag.
    arch:
        Micro-architecture description.
    """

    def __init__(
        self,
        minor_number: int,
        arch: GPUArchitecture = TESLA_GK210,
    ) -> None:
        if minor_number < 0:
            raise InvalidDeviceError(minor_number, "non-negative minor numbers")
        self.minor_number = minor_number
        self.arch = arch
        #: PCI bus id and UUID, as ``nvidia-smi`` renders them.
        self.bus_id = f"00000000:{5 + minor_number:02X}:00.0"
        self.uuid = f"GPU-SIM{minor_number:04d}-0000-0000-0000-000000000000"
        self.memory = MemoryAllocator(arch.fb_memory_bytes, device_index=minor_number)
        #: Attached (live) processes only, in attach order: detach removes
        #: the record, so every scan below costs O(live), not O(history).
        self._processes: dict[int, GPUProcess] = {}
        #: Bumped on every observable mutation (utilisation, link state,
        #: health, process table); the mapper's snapshot cache keys on the
        #: host-wide sum of these counters.
        self._version = 0
        self._sm_utilization: float = 0.0
        self._mem_utilization: float = 0.0
        self._pcie_generation_current: int = 1
        self._healthy: bool = True
        #: Cumulative busy seconds (kernel execution time) on this device.
        self.busy_seconds: float = 0.0
        #: Context admission policy (``nvidia-smi -c``).
        self.compute_mode: ComputeMode = ComputeMode.DEFAULT
        #: Volatile (since-reset) uncorrected ECC error count.
        self.ecc_errors: int = 0
        #: XID events the driver logged for this device: ``(time, xid)``.
        #: XID 79 ("GPU has fallen off the bus") accompanies device loss;
        #: XID 48 flags double-bit ECC errors.
        self.xid_events: list[tuple[float, int]] = []

    # ------------------------------------------------------------------ #
    # observable state (version-counted for snapshot caching)
    # ------------------------------------------------------------------ #
    @property
    def state_version(self) -> int:
        """Monotone counter over everything an NVML/SMI probe can observe.

        Any change that could alter a :func:`~repro.core.gpu_usage.get_gpu_usage_snapshot`
        result bumps this (directly or through the memory allocator's own
        counter), so equal versions guarantee an identical probe result.
        """
        return self._version + self.memory.version

    @property
    def sm_utilization(self) -> float:
        """Instantaneous SM utilisation percentage [0, 100]."""
        return self._sm_utilization

    @sm_utilization.setter
    def sm_utilization(self, value: float) -> None:
        self._sm_utilization = value
        self._version += 1

    @property
    def mem_utilization(self) -> float:
        """Instantaneous memory-controller utilisation percentage [0, 100]."""
        return self._mem_utilization

    @mem_utilization.setter
    def mem_utilization(self, value: float) -> None:
        self._mem_utilization = value
        self._version += 1

    @property
    def pcie_generation_current(self) -> int:
        """Current PCIe generation (devices downclock the link when idle)."""
        return self._pcie_generation_current

    @pcie_generation_current.setter
    def pcie_generation_current(self, value: int) -> None:
        self._pcie_generation_current = value
        self._version += 1

    @property
    def healthy(self) -> bool:
        """False once the device is lost (XID error / fallen off the bus)."""
        return self._healthy

    @healthy.setter
    def healthy(self, value: bool) -> None:
        self._healthy = value
        self._version += 1

    # ------------------------------------------------------------------ #
    # process lifecycle
    # ------------------------------------------------------------------ #
    def attach_process(
        self,
        pid: int,
        name: str,
        now: float = 0.0,
    ) -> GPUProcess:
        """Attach a host process (create its CUDA context) on this device.

        Raises
        ------
        ComputeModeError
            In ``EXCLUSIVE_PROCESS`` mode with another context live, or
            in ``PROHIBITED`` mode always — CUDA's
            ``cudaErrorDevicesUnavailable``.
        """
        attached = self._processes.get(pid)
        if attached is not None:
            return attached
        if self.compute_mode is ComputeMode.PROHIBITED:
            raise ComputeModeError(
                f"GPU {self.minor_number}: compute mode Prohibited"
            )
        if (
            self.compute_mode is ComputeMode.EXCLUSIVE_PROCESS
            and self.compute_processes()
        ):
            raise ComputeModeError(
                f"GPU {self.minor_number}: Exclusive_Process mode and a "
                "context already exists (cudaErrorDevicesUnavailable)"
            )
        proc = GPUProcess(pid=pid, name=name, start_time=now)
        self.memory.register_context(pid)
        self._processes[pid] = proc
        self._version += 1
        self.pcie_generation_current = self.arch.pcie_generation_max
        return proc

    def detach_process(self, pid: int, now: float = 0.0) -> int:
        """Detach ``pid`` and reclaim all its memory; returns bytes freed."""
        proc = self._processes.pop(pid, None)
        if proc is not None:
            proc.end_time = now
        self._version += 1
        freed = self.memory.release_pid(pid)
        if not self.compute_processes():
            self.sm_utilization = 0.0
            self.mem_utilization = 0.0
            self.pcie_generation_current = 1
        return freed

    @hot_path
    def compute_processes(self) -> list[GPUProcess]:
        """Live compute processes, in attach order (nvidia-smi row order)."""
        return list(self._processes.values())

    def process_pids(self) -> list[int]:
        """PIDs of live compute processes."""
        return [p.pid for p in self.compute_processes()]

    @property
    def is_idle(self) -> bool:
        """True when no compute process holds a context here.

        This is exactly the paper's availability criterion: Pseudocode 1
        marks a GPU *available* when its process list is empty.  A lost
        device is never idle-available.
        """
        return self.healthy and not self.compute_processes()

    def record_ecc_errors(self, count: int = 1, now: float = 0.0, xid: int = 48) -> None:
        """Log ``count`` uncorrected ECC errors (and the matching XID)."""
        if count <= 0:
            raise ValueError("ECC error count must be positive")
        self.ecc_errors += count
        self._version += 1
        self.xid_events.append((now, xid))

    def mark_failed(self, now: float = 0.0, xid: int = 79) -> list[int]:
        """The device falls off the bus (XID error).

        Every attached process loses its context (their CUDA calls would
        return ``cudaErrorDevicesUnavailable``); the driver stops
        enumerating the device.  Returns the PIDs that were killed off
        the device.  ``xid`` defaults to 79, the driver's "GPU has fallen
        off the bus" event.
        """
        casualties = [p.pid for p in self.compute_processes()]
        for pid in casualties:
            self.detach_process(pid, now=now)
        self.healthy = False
        self.sm_utilization = 0.0
        self.mem_utilization = 0.0
        self.xid_events.append((now, xid))
        return casualties

    def recover(self) -> None:
        """Bring the device back (driver reset / node reboot).

        A reset clears the volatile ECC counters, as ``nvidia-smi -r``
        does; the XID event log (the driver's dmesg history) survives.
        """
        self.healthy = True
        self.ecc_errors = 0

    # ------------------------------------------------------------------ #
    # memory convenience
    # ------------------------------------------------------------------ #
    def alloc(self, size: int, pid: int, tag: str = "") -> Allocation:
        """Allocate device memory on behalf of ``pid``."""
        return self.memory.alloc(size, pid, tag)

    def free(self, allocation: Allocation) -> int:
        """Free a prior allocation."""
        return self.memory.free(allocation)

    @property
    def fb_used_mib(self) -> int:
        """Framebuffer in use, MiB — the Memory strategy's ranking key."""
        return self.memory.used_mib

    @property
    def fb_total_mib(self) -> int:
        """Framebuffer capacity, MiB."""
        return self.arch.fb_memory_mib

    # ------------------------------------------------------------------ #
    # derived telemetry for nvidia-smi rendering
    # ------------------------------------------------------------------ #
    @property
    def temperature_c(self) -> int:
        """Crude thermal model: idle ~35C, +~0.35C per utilisation point."""
        return int(35 + 0.35 * self.sm_utilization)

    @property
    def power_draw_watts(self) -> float:
        """Crude power model: ~26 W idle to the board limit at 100 %."""
        idle = 26.0
        return round(
            idle + (self.arch.power_limit_watts - idle) * self.sm_utilization / 100.0, 1
        )


@dataclass(frozen=True)
class GPUBoardSpec:
    """A physical accelerator board composed of one or more dies."""

    name: str
    dies: int
    die_arch: GPUArchitecture


#: The paper's accelerator: a K80 board = two GK210 dies, 24 GB total.
TESLA_K80_BOARD = GPUBoardSpec(name="Tesla K80", dies=2, die_arch=TESLA_GK210)
