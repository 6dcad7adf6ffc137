"""The GPU host: a machine with N visible devices and a process table.

This is the object the NVML shim binds to and the ``nvidia-smi`` emulator
renders.  It also implements ``CUDA_VISIBLE_DEVICES`` semantics — the
mechanism GYAN's Pseudocode 2 uses to steer a tool onto its allocated
devices — including the renumbering rule: inside a process launched with
``CUDA_VISIBLE_DEVICES=2,3``, the devices appear as ordinals 0 and 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gpusim.clock import Timeline, VirtualClock
from repro.gpusim.device import GPUArchitecture, GPUDevice, TESLA_GK210, TESLA_K80_BOARD
from repro.gpusim.errors import InvalidDeviceError, ProcessError
from repro.gpusim.faults import FaultPlane
from repro.gpusim.process import PidAllocator


def parse_cuda_visible_devices(value: str | None, device_count: int) -> list[int]:
    """Resolve a ``CUDA_VISIBLE_DEVICES`` string to an ordered device list.

    Semantics follow the CUDA runtime:

    * ``None`` (unset) exposes all devices in minor-number order — the
      paper relies on this default ("if the tool does not specify any GPU
      device preference, all the GPUs are made available").
    * An empty string exposes *no* devices.
    * Entries are comma-separated minor numbers; order is preserved and
      determines the in-process renumbering.
    * The first invalid entry truncates the list (CUDA ignores everything
      from the first bad token onward).
    * Duplicate valid entries are kept once, first occurrence wins.
    """
    if value is None:
        return list(range(device_count))
    visible: list[int] = []
    text = value.strip()
    if not text:
        return visible
    for token in text.split(","):
        token = token.strip()
        try:
            index = int(token)
        except ValueError:
            break  # CUDA truncates at the first malformed entry
        if index < 0 or index >= device_count:
            break
        if index not in visible:
            visible.append(index)
    return visible


@dataclass
class HostProcess:
    """A host OS process, possibly attached to several GPU devices."""

    pid: int
    name: str
    device_indices: list[int] = field(default_factory=list)
    start_time: float = 0.0
    end_time: float | None = None

    @property
    def alive(self) -> bool:
        """True until :meth:`GPUHost.terminate_process` is called."""
        return self.end_time is None


class GPUHost:
    """A machine with an ordered set of GPU devices and a process table.

    Parameters
    ----------
    device_count:
        Number of GPU dies visible to the driver.  The paper's testbed has
        two K80 boards = four dies, but most experiments use the two dies
        of a single board (GPU 0 and GPU 1 in Figs. 8-11).
    arch:
        Architecture of each die.
    driver_version / cuda_version:
        Strings rendered verbatim by the ``nvidia-smi`` emulator; defaults
        match the paper's Fig. 10 banner.
    """

    def __init__(
        self,
        device_count: int = 2,
        arch: GPUArchitecture = TESLA_GK210,
        hostname: str = "gyan-node-0",
        driver_version: str = "455.45.01",
        cuda_version: str = "11.1",
        clock: VirtualClock | None = None,
        first_pid: int = 39953,
        dies_per_board: int = 2,
    ) -> None:
        if device_count <= 0:
            raise ValueError("a GPU host needs at least one device")
        if dies_per_board <= 0:
            raise ValueError("dies_per_board must be positive")
        #: Dies per physical accelerator board (2 for a Tesla K80): dies
        #: 2i and 2i+1 sit behind the same PLX switch.
        self.dies_per_board = dies_per_board
        self.hostname = hostname
        self.driver_version = driver_version
        self.cuda_version = cuda_version
        self.clock = clock or VirtualClock()
        self.timeline = Timeline()
        self.devices: list[GPUDevice] = [
            GPUDevice(minor_number=i, arch=arch) for i in range(device_count)
        ]
        self.pids = PidAllocator(first_pid=first_pid)
        self._processes: dict[int, HostProcess] = {}
        #: Pending injected transient failures, consumed by the NVML shim,
        #: ``nvidia-smi`` emulator and container runtimes.
        self.faults = FaultPlane()
        self._version = 0

    @property
    def state_version(self) -> int:
        """Monotone counter over everything an observability probe can see.

        Sums the host's own process-table counter, every device's
        :attr:`~repro.gpusim.device.GPUDevice.state_version` (utilisation,
        memory, health, per-device process lists) and the fault plane's
        counter (pending injected failures change what the next probe
        returns).  Equal ``(clock.now, state_version)`` pairs therefore
        guarantee an identical ``nvidia-smi``/NVML result — the key the
        mapper's snapshot cache relies on.
        """
        version = self._version + self.faults.version
        for device in self.devices:
            version += device.state_version
        return version

    # ------------------------------------------------------------------ #
    # device access
    # ------------------------------------------------------------------ #
    @property
    def device_count(self) -> int:
        """Number of devices the driver exposes."""
        return len(self.devices)

    def device(self, minor_number: int) -> GPUDevice:
        """The device with the given minor number."""
        if not 0 <= minor_number < len(self.devices):
            raise InvalidDeviceError(minor_number, list(range(len(self.devices))))
        return self.devices[minor_number]

    def visible_devices(self, cuda_visible_devices: str | None) -> list[GPUDevice]:
        """Devices a process launched with the given mask would see.

        The returned order is the in-process ordinal order (device 0 in
        the process is the first entry of the mask).  Lost devices are
        never enumerated by the CUDA runtime, mask or not.
        """
        indices = parse_cuda_visible_devices(cuda_visible_devices, self.device_count)
        return [self.devices[i] for i in indices if self.devices[i].healthy]

    def healthy_devices(self) -> list[GPUDevice]:
        """Devices the driver still enumerates."""
        return [d for d in self.devices if d.healthy]

    def board_of(self, minor_number: int) -> int:
        """The physical board index a die sits on."""
        self.device(minor_number)  # validate
        return minor_number // self.dies_per_board

    def same_board(self, a: int, b: int) -> bool:
        """Whether two dies share a board (PLX-switch locality)."""
        return self.board_of(a) == self.board_of(b)

    def available_devices(self) -> list[GPUDevice]:
        """Devices with no live compute process (the paper's availability)."""
        return [d for d in self.devices if d.is_idle]

    def min_memory_device(self) -> GPUDevice:
        """The healthy device with the least framebuffer in use.

        Ties break toward the lower minor number, matching the behaviour
        observed in the paper's Case 4 (GPU 0 at 60 MiB wins).
        """
        candidates = self.healthy_devices() or self.devices
        return min(candidates, key=lambda d: (d.memory.used, d.minor_number))

    # ------------------------------------------------------------------ #
    # process lifecycle
    # ------------------------------------------------------------------ #
    def launch_process(
        self,
        name: str,
        cuda_visible_devices: str | None = None,
        attach: bool = True,
        context_overhead: int | None = None,
    ) -> HostProcess:
        """Start a host process, attaching CUDA contexts on visible devices.

        Parameters
        ----------
        name:
            Process name as it should appear in ``nvidia-smi``.
        cuda_visible_devices:
            The mask exported by GYAN; ``None`` means all devices.
        attach:
            If False, the process starts but creates no GPU context (a
            CPU-only tool).
        """
        pid = self.pids.next_pid()
        now = self.clock.now
        proc = HostProcess(pid=pid, name=name, start_time=now)
        if attach:
            for dev in self.visible_devices(cuda_visible_devices):
                dev.attach_process(
                    pid, name, now=now, context_overhead=context_overhead
                )
                proc.device_indices.append(dev.minor_number)
        self._processes[pid] = proc
        self._version += 1
        self.timeline.record(now, "process_start", {"pid": pid, "name": name})
        return proc

    def terminate_process(self, pid: int) -> None:
        """Kill ``pid``, detaching it from every device it touched."""
        proc = self._processes.get(pid)
        if proc is None:
            raise ProcessError(f"unknown pid {pid}")
        if not proc.alive:
            raise ProcessError(f"pid {pid} already terminated")
        now = self.clock.now
        proc.end_time = now
        self._version += 1
        for index in proc.device_indices:
            self.devices[index].detach_process(pid, now=now)
        self.timeline.record(now, "process_end", {"pid": pid, "name": proc.name})

    def process(self, pid: int) -> HostProcess:
        """Look up a host process by PID."""
        try:
            return self._processes[pid]
        except KeyError:
            raise ProcessError(f"unknown pid {pid}") from None

    # ------------------------------------------------------------------ #
    # aggregate telemetry
    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """A structured snapshot of the whole host (used by the monitor)."""
        return {
            "time": self.clock.now,
            "devices": [
                {
                    "minor_number": d.minor_number,
                    "fb_used_mib": d.fb_used_mib,
                    "fb_total_mib": d.fb_total_mib,
                    "sm_utilization": d.sm_utilization,
                    "mem_utilization": d.mem_utilization,
                    "pcie_generation": d.pcie_generation_current,
                    "pids": d.process_pids(),
                }
                for d in self.devices
            ],
        }


def make_k80_host(
    boards: int = 1,
    clock: VirtualClock | None = None,
    hostname: str = "gyan-node-0",
) -> GPUHost:
    """Build the paper's testbed: ``boards`` Tesla K80 boards (2 dies each).

    The default single board yields devices 0 and 1 — the configuration
    every multi-GPU case in the paper's Figs. 8-11 uses.
    """
    return GPUHost(
        device_count=boards * TESLA_K80_BOARD.dies,
        arch=TESLA_GK210,
        hostname=hostname,
        clock=clock,
    )
