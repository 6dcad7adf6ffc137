"""A compute node: CPU slots, system memory, and an optional GPU host.

The paper's testbed node — Intel Xeon E5-2670, 48 logical CPUs, two Tesla
K80 boards — is the default configuration of :func:`ComputeNode.paper_testbed`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpusim.clock import VirtualClock
from repro.gpusim.host import GPUHost, make_k80_host


@dataclass(frozen=True)
class NodeResources:
    """Static resource inventory of a node."""

    cpu_slots: int
    memory_gib: int
    gpu_count: int

    def __post_init__(self) -> None:
        if self.cpu_slots <= 0:
            raise ValueError("cpu_slots must be positive")
        if self.memory_gib <= 0:
            raise ValueError("memory_gib must be positive")
        if self.gpu_count < 0:
            raise ValueError("gpu_count must be non-negative")


class NodeCapacityError(ValueError):
    """A CPU reservation asked for more slots than the node has free."""


class ComputeNode:
    """One machine in the cluster.

    Tracks CPU-slot occupancy (the unit Galaxy's ``local`` runner
    allocates per tool thread) and owns the node's GPU host when GPUs are
    present.  CPU slots are a counting semaphore; GPU state lives in
    :class:`~repro.gpusim.host.GPUHost`.
    """

    def __init__(
        self,
        hostname: str,
        resources: NodeResources,
        clock: VirtualClock | None = None,
        gpu_host: GPUHost | None = None,
    ) -> None:
        self.hostname = hostname
        self.resources = resources
        self.clock = clock or (gpu_host.clock if gpu_host is not None else VirtualClock())
        if resources.gpu_count > 0 and gpu_host is None:
            raise ValueError("a node with GPUs needs a gpu_host")
        if gpu_host is not None and gpu_host.device_count != resources.gpu_count:
            raise ValueError(
                f"gpu_host has {gpu_host.device_count} devices but resources "
                f"declare {resources.gpu_count}"
            )
        self.gpu_host = gpu_host
        self._cpu_in_use = 0
        self._reservations: dict[int, int] = {}
        self._reservation_ids = iter(range(1, 1_000_000_000))

    # ------------------------------------------------------------------ #
    @property
    def cpu_slots_free(self) -> int:
        """CPU slots not currently reserved."""
        return self.resources.cpu_slots - self._cpu_in_use

    def reserve_cpus(self, count: int) -> int:
        """Reserve ``count`` CPU slots; returns a reservation token.

        Raises
        ------
        ValueError
            If the request is non-positive.
        NodeCapacityError
            If it exceeds the free slots (a ``ValueError`` subclass).
        """
        if count <= 0:
            raise ValueError("must reserve at least one CPU slot")
        if count > self.cpu_slots_free:
            raise NodeCapacityError(
                f"{self.hostname}: requested {count} CPU slots, "
                f"only {self.cpu_slots_free} free"
            )
        token = next(self._reservation_ids)
        self._reservations[token] = count
        self._cpu_in_use += count
        return token

    def release_cpus(self, token: int) -> int:
        """Release a reservation; returns how many slots were freed."""
        count = self._reservations.pop(token, None)
        if count is None:
            raise ValueError(f"unknown CPU reservation token {token}")
        self._cpu_in_use -= count
        return count

    # ------------------------------------------------------------------ #
    @classmethod
    def paper_testbed(cls, clock: VirtualClock | None = None) -> "ComputeNode":
        """The paper's machine: 48 CPUs, 128 GiB, one K80 board (2 dies).

        The multi-GPU experiments (Figs. 8-11) use exactly two GPU minor
        numbers, i.e. one K80 board.
        """
        clock = clock or VirtualClock()
        gpu_host = make_k80_host(boards=1, clock=clock)
        return cls(
            hostname="gyan-node-0",
            resources=NodeResources(cpu_slots=48, memory_gib=128, gpu_count=2),
            clock=clock,
            gpu_host=gpu_host,
        )

    @classmethod
    def cpu_only(cls) -> "ComputeNode":
        """A GPU-less node — the fallback destination GYAN switches to."""
        return cls(
            hostname="cpu-node-0",
            resources=NodeResources(cpu_slots=48, memory_gib=128, gpu_count=0),
        )
