"""simsan — the opt-in runtime invariant checker for the GPU simulator.

Modeled on compute-sanitizer/ASan: when installed, simsan wraps the
mutation points of :class:`~repro.gpusim.host.GPUHost`, the per-device
:class:`~repro.gpusim.memory.MemoryAllocator`, and the
:class:`~repro.gpusim.clock.VirtualClock`, and raises
:class:`SanitizerError` the moment an invariant breaks instead of letting
the corruption surface later as a wrong experiment number:

* **SIM301** — a terminated process still owns framebuffer somewhere on
  the host (a leak the driver's per-process cleanup cannot reclaim);
* **SIM302** — an allocation freed twice;
* **SIM303** — SM or memory-controller utilization outside [0, 100];
* **SIM304** — the virtual clock observed moving backwards;
* **SIM305** — ``used + free != capacity`` on an allocator;
* **SIM306** — a lost/unhealthy device still hosts live compute
  processes (``mark_failed`` must kill every context, like XID 79).

Enablement is environment-driven so the whole test suite can run under
the sanitizer without touching production code paths::

    GYAN_SIMSAN=1 python -m pytest

or programmatically with :func:`install` / :func:`uninstall`.  Install is
idempotent and uninstall restores the original methods exactly.
"""

from __future__ import annotations

import os
import weakref
from dataclasses import dataclass, field

from repro.analysis import rules as R
from repro.analysis.findings import Finding
from repro.gpusim.clock import VirtualClock
from repro.gpusim.device import GPUDevice
from repro.gpusim.errors import DoubleFreeError, GpuSimError
from repro.gpusim.host import GPUHost
from repro.gpusim.memory import MemoryAllocator

#: Environment variable that turns the sanitizer on (any non-empty value
#: other than "0" counts).
SIMSAN_ENV_VAR = "GYAN_SIMSAN"


class SanitizerError(GpuSimError):
    """An invariant the sanitizer watches was violated."""

    def __init__(self, finding: Finding) -> None:
        self.finding = finding
        super().__init__(finding.format_text())


@dataclass
class SimSanitizer:
    """Violation log plus the wrapped-method bookkeeping."""

    violations: list[Finding] = field(default_factory=list)
    _originals: dict[str, object] = field(default_factory=dict)
    # Keyed by the clock object itself (weakly): keying by id() would
    # let a dead clock's mark shadow a fresh clock that reuses the id.
    _clock_marks: weakref.WeakKeyDictionary = field(
        default_factory=weakref.WeakKeyDictionary
    )

    def drain(self) -> list[Finding]:
        """Return and clear the recorded violations."""
        drained, self.violations = self.violations, []
        return drained

    def _report(self, rule, message: str) -> None:
        finding = rule.finding(message, path=None)
        self.violations.append(finding)
        raise SanitizerError(finding)

    # ------------------------------------------------------------------ #
    # invariant checks (also usable directly from tests)
    # ------------------------------------------------------------------ #
    def check_allocator(self, allocator: MemoryAllocator) -> None:
        """SIM305: byte accounting on one device allocator.

        Recomputes usage from the live allocation/context tables and
        checks it against the allocator's incremental ``used`` counter —
        catching both out-of-range totals and counter drift.
        """
        used, capacity = allocator.used, allocator.capacity
        actual = allocator.audit_used()
        if actual != used or used < 0 or actual < 0 or actual > capacity:
            self._report(
                R.SIM305,
                f"device {allocator.device_index}: live allocations sum to "
                f"{actual} bytes but used counter says {used} "
                f"(capacity {capacity})",
            )

    def check_device(self, device: GPUDevice) -> None:
        """SIM303 + SIM305 + SIM306 for one device."""
        for label, value in (
            ("sm_utilization", device.sm_utilization),
            ("mem_utilization", device.mem_utilization),
        ):
            if not 0.0 <= value <= 100.0:
                self._report(
                    R.SIM303,
                    f"GPU {device.minor_number}: {label} = {value!r} "
                    "outside [0, 100]",
                )
        if not device.healthy:
            survivors = device.process_pids()
            if survivors:
                self._report(
                    R.SIM306,
                    f"GPU {device.minor_number} is lost but still hosts "
                    f"live processes (pids {survivors}); mark_failed must "
                    "kill every context",
                )
        self.check_allocator(device.memory)

    def check_clock(self, clock: VirtualClock) -> None:
        """SIM304: the clock never runs backwards between observations."""
        mark = self._clock_marks.get(clock)
        if mark is not None and clock.now < mark:
            self._report(
                R.SIM304,
                f"virtual clock moved backwards: {clock.now} < last "
                f"observed {mark}",
            )
        self._clock_marks[clock] = clock.now

    def check_process_exit(self, host: GPUHost, pid: int) -> None:
        """SIM301: a dead process must own no memory anywhere on the host."""
        for device in host.devices:
            leaked = device.memory.used_by(pid)
            if leaked > 0:
                tags = [
                    a.tag or f"alloc#{a.alloc_id}"
                    for a in device.memory.live_allocations(pid)
                ]
                self._report(
                    R.SIM301,
                    f"pid {pid} terminated but still owns {leaked} B on "
                    f"GPU {device.minor_number} "
                    f"({', '.join(tags) or 'context overhead'})",
                )

    # ------------------------------------------------------------------ #
    # installation: wrap the simulator's mutation points
    # ------------------------------------------------------------------ #
    @property
    def installed(self) -> bool:
        return bool(self._originals)

    def install(self) -> None:
        """Wrap the simulator classes (idempotent)."""
        if self.installed:
            return
        san = self

        orig_alloc = MemoryAllocator.alloc
        orig_free = MemoryAllocator.free
        orig_terminate = GPUHost.terminate_process
        orig_advance_to = VirtualClock.advance_to
        orig_attach = GPUDevice.attach_process
        orig_detach = GPUDevice.detach_process
        self._originals = {
            "MemoryAllocator.alloc": orig_alloc,
            "MemoryAllocator.free": orig_free,
            "GPUHost.terminate_process": orig_terminate,
            "VirtualClock.advance_to": orig_advance_to,
            "GPUDevice.attach_process": orig_attach,
            "GPUDevice.detach_process": orig_detach,
        }

        def alloc(allocator, size, owner_pid, tag=""):
            allocation = orig_alloc(allocator, size, owner_pid, tag)
            san.check_allocator(allocator)
            return allocation

        def free(allocator, allocation):
            try:
                freed = orig_free(allocator, allocation)
            except DoubleFreeError as exc:
                san.violations.append(
                    R.SIM302.finding(
                        f"double free on device {allocator.device_index}: {exc}"
                    )
                )
                raise
            san.check_allocator(allocator)
            return freed

        def terminate_process(host, pid):
            orig_terminate(host, pid)
            san.check_process_exit(host, pid)
            san.check_clock(host.clock)

        def advance_to(clock, when):
            result = orig_advance_to(clock, when)
            san.check_clock(clock)
            return result

        def attach_process(device, *args, **kwargs):
            proc = orig_attach(device, *args, **kwargs)
            san.check_device(device)
            return proc

        def detach_process(device, *args, **kwargs):
            freed = orig_detach(device, *args, **kwargs)
            san.check_device(device)
            return freed

        MemoryAllocator.alloc = alloc
        MemoryAllocator.free = free
        GPUHost.terminate_process = terminate_process
        VirtualClock.advance_to = advance_to
        GPUDevice.attach_process = attach_process
        GPUDevice.detach_process = detach_process

    def uninstall(self) -> None:
        """Restore the original, unwrapped methods."""
        if not self.installed:
            return
        MemoryAllocator.alloc = self._originals["MemoryAllocator.alloc"]
        MemoryAllocator.free = self._originals["MemoryAllocator.free"]
        GPUHost.terminate_process = self._originals["GPUHost.terminate_process"]
        VirtualClock.advance_to = self._originals["VirtualClock.advance_to"]
        GPUDevice.attach_process = self._originals["GPUDevice.attach_process"]
        GPUDevice.detach_process = self._originals["GPUDevice.detach_process"]
        self._originals = {}
        self._clock_marks = weakref.WeakKeyDictionary()


# --------------------------------------------------------------------- #
# module-level singleton, mirroring how ASan is process-global
# --------------------------------------------------------------------- #
_active: SimSanitizer | None = None


def current() -> SimSanitizer | None:
    """The installed sanitizer, or ``None``."""
    return _active


def install() -> SimSanitizer:
    """Install (or return the already-installed) process-wide sanitizer."""
    global _active
    if _active is not None and _active.installed:
        return _active
    _active = SimSanitizer()
    _active.install()
    return _active


def uninstall() -> None:
    """Remove the process-wide sanitizer, restoring original methods."""
    global _active
    if _active is not None:
        _active.uninstall()
        _active = None


def enabled_from_env() -> bool:
    """Whether :data:`SIMSAN_ENV_VAR` asks for the sanitizer."""
    value = os.environ.get(SIMSAN_ENV_VAR, "")
    return value not in ("", "0", "false", "no")


def install_from_env() -> SimSanitizer | None:
    """Install when the environment asks for it; returns the sanitizer."""
    if enabled_from_env():
        return install()
    return None
