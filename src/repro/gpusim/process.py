"""Host- and device-side process modelling.

``nvidia-smi``'s ``<processes>`` section — the ground truth for the
paper's *Process ID* allocation strategy (Pseudocode 1) — lists, per GPU,
the PID, type (``C``: every GYAN tool is a compute process) and memory
usage of every process holding a context on the device.
:class:`GPUProcess` is one such row; :class:`PidAllocator` hands out
host PIDs the way a kernel would, so console outputs resemble the
paper's Figs. 10-11.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field


@dataclass
class GPUProcess:
    """A process attached to a GPU device.

    Attributes
    ----------
    pid:
        Host process id.
    name:
        Process name as ``nvidia-smi`` shows it, e.g.
        ``"/usr/bin/racon_gpu"``.
    start_time:
        Virtual time at which the process attached to the device.
    end_time:
        Virtual time of detach, or ``None`` while still attached.
    """

    pid: int
    name: str
    start_time: float = 0.0
    end_time: float | None = field(default=None, compare=False)


class PidAllocator:
    """Monotonically increasing host PID source.

    Starting PIDs in the tens of thousands makes rendered ``nvidia-smi``
    tables look like the paper's console figures (PIDs 39953, 40534, ...),
    which is convenient when diffing the Fig. 10/11 reproductions.
    """

    def __init__(self) -> None:
        self._counter = itertools.count(39953)

    def next_pid(self) -> int:
        """Return a fresh, never-before-issued PID."""
        return next(self._counter)
