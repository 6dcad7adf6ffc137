"""Device framebuffer memory accounting.

The *Process Allocated Memory* allocation strategy (paper §IV-C2) places
an incoming job on the GPU whose ``fb_memory_usage.used`` is minimal, so
the simulator must track per-process device memory faithfully: every
allocation is owned by a PID, survives until freed or until the owning
process exits, and the per-device ``used`` figure is the sum of live
allocations plus a small driver-context overhead per attached process
(real CUDA contexts cost ~60-100 MiB, which is why idle ``racon_gpu``
processes show 60 MiB in the paper's Fig. 11).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.gpusim import footprint as _footprint
from repro.gpusim.errors import DeviceOutOfMemoryError, DoubleFreeError

MIB = 1024 * 1024

#: Device memory charged per attached process for its CUDA context.  Chosen
#: to match the 60 MiB per-process figure visible in the paper's Fig. 11
#: ``nvidia-smi`` output.
CUDA_CONTEXT_OVERHEAD_BYTES = 60 * MIB


@dataclass
class Allocation:
    """A live device-memory allocation.

    Attributes
    ----------
    alloc_id:
        Unique id within the owning allocator.
    owner_pid:
        Host PID of the process that made the allocation.
    size:
        Size in bytes.
    tag:
        Free-form label (e.g. ``"poa_batch"``) used in tests and traces.
    freed:
        True once :meth:`MemoryAllocator.free` has released it.
    """

    alloc_id: int
    owner_pid: int
    size: int
    tag: str = ""
    freed: bool = field(default=False, compare=False)


class MemoryAllocator:
    """Byte-granular framebuffer allocator for one GPU device.

    Invariants (enforced and property-tested):

    * ``used + free == capacity`` at all times,
    * the sum of live allocation sizes equals ``used`` minus context
      overheads,
    * an allocation can be freed exactly once,
    * allocating more than ``free_bytes`` raises :class:`DeviceOutOfMemoryError`
      without mutating state.
    """

    def __init__(self, capacity_bytes: int, device_index: int = 0) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bytes}")
        self.capacity = int(capacity_bytes)
        self.device_index = device_index
        self._live: dict[int, Allocation] = {}
        self._context_overhead: dict[int, int] = {}
        self._ids = itertools.count(1)
        #: Incrementally maintained sum of live allocations + contexts, so
        #: per-second telemetry reads of :attr:`used` are O(1) instead of
        #: O(live allocations).
        self._used_bytes = 0
        #: Bumped on every mutation; feeds the host state version the
        #: mapper's snapshot cache is keyed on.
        self._version = 0
        #: Footprint key reported to gyan-race's happens-before checker.
        self._footprint_key = f"alloc:{device_index}"

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def used(self) -> int:
        """Bytes currently in use (allocations + per-process contexts)."""
        if _footprint._RECORDER is not None:
            _footprint._RECORDER.read(self._footprint_key)
        return self._used_bytes

    @property
    def version(self) -> int:
        """Monotone mutation counter (allocs, frees, context changes)."""
        return self._version

    @property
    def free_bytes(self) -> int:
        """Bytes currently available."""
        return self.capacity - self.used

    @property
    def used_mib(self) -> int:
        """:attr:`used` in whole MiB, as ``nvidia-smi`` reports it."""
        return self.used // MIB

    def audit_used(self) -> int:
        """Recompute :attr:`used` from first principles (O(live) walk).

        The hot-path :attr:`used` is an incrementally maintained counter;
        this is the ground truth the sanitizer checks it against.
        """
        return sum(a.size for a in self._live.values()) + sum(
            self._context_overhead.values()
        )

    def live_allocations(self, pid: int | None = None) -> list[Allocation]:
        """Live allocations, optionally filtered to one owning PID."""
        allocs = list(self._live.values())
        if pid is not None:
            allocs = [a for a in allocs if a.owner_pid == pid]
        return allocs

    def used_by(self, pid: int) -> int:
        """Bytes attributable to ``pid`` (allocations + its context)."""
        return sum(a.size for a in self._live.values() if a.owner_pid == pid) + (
            self._context_overhead.get(pid, 0)
        )

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def register_context(
        self, pid: int, overhead_bytes: int = CUDA_CONTEXT_OVERHEAD_BYTES
    ) -> None:
        """Charge the per-process CUDA context overhead for ``pid``.

        Idempotent for a given PID — re-registering does not double-charge.
        """
        if pid in self._context_overhead:
            return
        if overhead_bytes > self.free_bytes:
            raise DeviceOutOfMemoryError(
                overhead_bytes, self.free_bytes, self.device_index
            )
        if _footprint._RECORDER is not None:
            _footprint._RECORDER.write(self._footprint_key)
        self._context_overhead[pid] = int(overhead_bytes)
        self._used_bytes += int(overhead_bytes)
        self._version += 1

    def alloc(self, size: int, owner_pid: int, tag: str = "") -> Allocation:
        """Allocate ``size`` bytes for ``owner_pid``.

        Raises
        ------
        DeviceOutOfMemoryError
            If fewer than ``size`` bytes are free.  State is unchanged.
        ValueError
            For a non-positive size.
        """
        if size <= 0:
            raise ValueError(f"allocation size must be positive, got {size}")
        if size > self.free_bytes:
            raise DeviceOutOfMemoryError(size, self.free_bytes, self.device_index)
        if _footprint._RECORDER is not None:
            _footprint._RECORDER.write(self._footprint_key)
        allocation = Allocation(
            alloc_id=next(self._ids), owner_pid=owner_pid, size=int(size), tag=tag
        )
        self._live[allocation.alloc_id] = allocation
        self._used_bytes += allocation.size
        self._version += 1
        return allocation

    def free(self, allocation: Allocation) -> int:
        """Release ``allocation``; returns the number of bytes freed.

        Raises
        ------
        DoubleFreeError
            If the allocation was already freed (or never made here).
        """
        if _footprint._RECORDER is not None:
            _footprint._RECORDER.write(self._footprint_key)
        live = self._live.pop(allocation.alloc_id, None)
        if live is None or allocation.freed:
            raise DoubleFreeError(
                f"allocation {allocation.alloc_id} is not live on device "
                f"{self.device_index}"
            )
        allocation.freed = True
        self._used_bytes -= live.size
        self._version += 1
        return live.size

    def release_pid(self, pid: int) -> int:
        """Free everything owned by ``pid`` (process exit); returns bytes freed.

        This models the driver reclaiming memory when a process dies,
        which is what makes a GPU "available" again to the paper's
        Process-ID strategy.
        """
        if _footprint._RECORDER is not None:
            _footprint._RECORDER.write(self._footprint_key)
        freed = 0
        for alloc_id in [i for i, a in self._live.items() if a.owner_pid == pid]:
            allocation = self._live.pop(alloc_id)
            allocation.freed = True
            freed += allocation.size
        freed += self._context_overhead.pop(pid, 0)
        if freed:
            self._used_bytes -= freed
            self._version += 1
        return freed
