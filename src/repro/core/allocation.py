"""GPU device allocation strategies (paper §IV-C1 and §IV-C2).

Given a tool's requested GPU minor IDs (the requirement's ``version``
tag) and a fresh :class:`~repro.core.gpu_usage.GpuUsageSnapshot`, a
strategy decides which device IDs to expose through
``CUDA_VISIBLE_DEVICES``:

**Process ID approach** — prefer the requested devices when they are
idle; otherwise fall back to all idle devices; when every device is
busy, scatter across all of them (observed in the paper's Case 3, where
the third and fourth Racon instances land on both GPUs).

**Process Allocated Memory approach** — place the job on the single GPU
with the least used framebuffer memory, avoiding the multi-GPU
distribution overhead for tools without multi-GPU support (paper Case 4:
"a better approach ... than distributing the 3rd process to all GPUs").
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.core.gpu_usage import GpuUsageSnapshot


@dataclass(frozen=True)
class AllocationDecision:
    """The outcome of a device-selection decision."""

    gpu_ids: tuple[str, ...]
    strategy: str
    reason: str

    @property
    def cuda_visible_devices(self) -> str:
        """The value to export (paper: ``gpu_dev_to_exec``)."""
        return ",".join(self.gpu_ids)

    @property
    def is_empty(self) -> bool:
        """True when no device could be selected (no GPUs on host)."""
        return not self.gpu_ids


class AllocationStrategy(abc.ABC):
    """Interface: requested IDs + usage snapshot -> device selection."""

    name: str = "abstract"

    @abc.abstractmethod
    def select(
        self, requested_ids: list[str], snapshot: GpuUsageSnapshot
    ) -> AllocationDecision:
        """Choose the device IDs for an incoming job.

        ``requested_ids`` come from the wrapper's requirement ``version``
        tag and may be empty (no preference).  Implementations must only
        ever return IDs present in ``snapshot.all_gpus``.
        """

    def _decision(self, gpu_ids: list[str], reason: str) -> AllocationDecision:
        return AllocationDecision(
            gpu_ids=tuple(gpu_ids), strategy=self.name, reason=reason
        )


class PidAllocationStrategy(AllocationStrategy):
    """Paper §IV-C1: availability = no executing process (by PID)."""

    name = "pid"

    def select(
        self, requested_ids: list[str], snapshot: GpuUsageSnapshot
    ) -> AllocationDecision:
        """Requested-if-idle, else all idle, else scatter to all."""
        all_gpus = snapshot.all_gpus
        if not all_gpus:
            return self._decision([], "host has no GPUs")
        valid_requested = [gid for gid in requested_ids if gid in all_gpus]
        available = snapshot.available_gpus
        if valid_requested and all(gid in available for gid in valid_requested):
            return self._decision(
                valid_requested, "requested device(s) are available"
            )
        if available:
            return self._decision(
                available, "requested device busy; using available device(s)"
            )
        return self._decision(
            all_gpus, "all devices busy; scattering across all GPUs"
        )


class MemoryAllocationStrategy(AllocationStrategy):
    """Paper §IV-C2: place on the GPU with minimal used framebuffer."""

    name = "memory"

    def select(
        self, requested_ids: list[str], snapshot: GpuUsageSnapshot
    ) -> AllocationDecision:
        """Requested-if-idle, else the single least-loaded device."""
        all_gpus = snapshot.all_gpus
        if not all_gpus:
            return self._decision([], "host has no GPUs")
        valid_requested = [gid for gid in requested_ids if gid in all_gpus]
        available = snapshot.available_gpus
        if valid_requested and all(gid in available for gid in valid_requested):
            return self._decision(
                valid_requested, "requested device(s) are available"
            )
        choice = snapshot.min_memory_gpu()
        assert choice is not None  # all_gpus is non-empty
        used = snapshot.fb_used_mib.get(choice, 0)
        return self._decision(
            [choice], f"least framebuffer in use ({used} MiB on GPU {choice})"
        )


class UtilizationAllocationStrategy(AllocationStrategy):
    """Extension strategy: place on the GPU with lowest SM utilisation.

    Not in the paper's pair, but a natural completion of its design
    space: the memory strategy avoids *capacity* contention, this one
    avoids *compute* contention — useful when co-located tools are
    memory-light but SM-hungry.  Ties break by (fb used, minor id), so
    it degrades to the memory strategy on an all-idle host.
    """

    name = "utilization"

    def select(
        self, requested_ids: list[str], snapshot: GpuUsageSnapshot
    ) -> AllocationDecision:
        """Requested-if-idle, else the least-utilised single device."""
        all_gpus = snapshot.all_gpus
        if not all_gpus:
            return self._decision([], "host has no GPUs")
        valid_requested = [gid for gid in requested_ids if gid in all_gpus]
        available = snapshot.available_gpus
        if valid_requested and all(gid in available for gid in valid_requested):
            return self._decision(
                valid_requested, "requested device(s) are available"
            )
        choice = min(
            all_gpus,
            key=lambda gid: (
                snapshot.gpu_utilization.get(gid, 0),
                snapshot.fb_used_mib.get(gid, 0),
                gid,
            ),
        )
        util = snapshot.gpu_utilization.get(choice, 0)
        return self._decision(
            [choice], f"lowest SM utilisation ({util}% on GPU {choice})"
        )


def strategy_by_name(name: str) -> AllocationStrategy:
    """Factory used by job_conf parameters (``gpu_allocation=pid|memory|utilization``)."""
    strategies: dict[str, type[AllocationStrategy]] = {
        PidAllocationStrategy.name: PidAllocationStrategy,
        MemoryAllocationStrategy.name: MemoryAllocationStrategy,
        UtilizationAllocationStrategy.name: UtilizationAllocationStrategy,
    }
    try:
        return strategies[name]()
    except KeyError:
        raise ValueError(
            f"unknown allocation strategy {name!r}; expected one of "
            f"{sorted(strategies)}"
        ) from None
