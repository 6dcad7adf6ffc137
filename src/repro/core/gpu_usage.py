"""``get_gpu_usage`` — the paper's Pseudocode 1, ported faithfully.

The function lives in Galaxy's ``local.py`` runner in the paper: it
shells out to ``nvidia-smi -q -x``, parses the XML with BeautifulSoup,
builds a ``{gpu_minor_id: [pids]}`` dictionary, and derives the list of
*available* GPUs (those with no executing process) plus the list of all
GPUs.  Here the subprocess is the emulator's :func:`~repro.gpusim.smi.run_query`
and the soup is :class:`~repro.gpusim.smi.SmiSoup`, but the traversal is
line-for-line the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gpusim.host import GPUHost
from repro.gpusim.smi import SmiSoup, run_query
from repro.hotpath import hot_path


@dataclass
class GpuUsageSnapshot:
    """Everything one ``nvidia-smi`` query reveals about GPU occupancy."""

    #: GPU minor IDs with no executing process (paper: ``avail_gpus``).
    available_gpus: list[str] = field(default_factory=list)
    #: All GPU minor IDs on the host (paper: ``all_gpus``).
    all_gpus: list[str] = field(default_factory=list)
    #: ``{minor_id: [pid, ...]}`` (paper: ``proc_gpu_dict``).
    proc_gpu_dict: dict[str, list[str]] = field(default_factory=dict)
    #: ``{minor_id: fb_memory_usage.used MiB}`` — the Memory strategy's input.
    fb_used_mib: dict[str, int] = field(default_factory=dict)
    #: ``{minor_id: fb_memory_usage.free MiB}`` — the admission check's input.
    fb_free_mib: dict[str, int] = field(default_factory=dict)
    #: ``{minor_id: gpu_util %}`` — the utilization strategy's input.
    gpu_utilization: dict[str, int] = field(default_factory=dict)

    def busiest_first(self) -> list[str]:
        """Minor IDs sorted by descending process count (ties by id)."""
        return sorted(
            self.all_gpus,
            key=lambda gid: (-len(self.proc_gpu_dict.get(gid, [])), gid),
        )

    def min_memory_gpu(self) -> str | None:
        """Minor ID with the least used framebuffer (ties to lower id)."""
        if not self.all_gpus:
            return None
        return min(self.all_gpus, key=lambda gid: (self.fb_used_mib.get(gid, 0), gid))


def get_gpu_usage(host: GPUHost) -> tuple[list[str], list[str]]:
    """Pseudocode 1: (available GPU minor IDs, all GPU minor IDs).

    Parses the ``nvidia-smi -q -x`` XML exactly as the paper does — per
    ``<gpu>`` element, read ``<minor_number>``, then collect the
    ``<pid>`` of each ``<process_info>`` under ``<processes>``; a GPU is
    available when its PID list is empty.
    """
    snapshot = get_gpu_usage_snapshot(host)
    return snapshot.available_gpus, snapshot.all_gpus


@hot_path
def get_gpu_usage_snapshot(host: GPUHost) -> GpuUsageSnapshot:
    """Pseudocode 1 plus the memory figures §IV-C2's strategy also reads.

    A failed ``nvidia-smi`` raises ``RuntimeError``; the mapper retries
    it (:meth:`~repro.core.mapper.GpuComputationMapper._query`).
    """
    out, err = run_query(host, "-q -x")
    if err:
        raise RuntimeError(f"nvidia-smi failed: {err.strip()}")
    soup = SmiSoup(out)

    snapshot = GpuUsageSnapshot()
    log = soup.find("nvidia_smi_log")
    if log is None:  # pragma: no cover - emulator always emits the root
        return snapshot
    for gpu in log.find_all("gpu"):
        minor_node = gpu.find("minor_number")
        if minor_node is None:
            continue
        minor_id = minor_node.text
        snapshot.proc_gpu_dict.setdefault(minor_id, [])
        processes = gpu.find("processes")
        if processes is not None:
            for process_info in processes.find_all("process_info"):
                pid_node = process_info.find("pid")
                if pid_node is not None:
                    snapshot.proc_gpu_dict[minor_id].append(pid_node.text)
        fb_node = gpu.find("fb_memory_usage")
        if fb_node is not None:
            used_node = fb_node.find("used")
            if used_node is not None:
                snapshot.fb_used_mib[minor_id] = int(used_node.text.split()[0])
            free_node = fb_node.find("free")
            if free_node is not None:
                snapshot.fb_free_mib[minor_id] = int(free_node.text.split()[0])
        util_node = gpu.find("utilization")
        if util_node is not None:
            gpu_util = util_node.find("gpu_util")
            if gpu_util is not None:
                snapshot.gpu_utilization[minor_id] = int(gpu_util.text.split()[0])

    for minor_id, pids in snapshot.proc_gpu_dict.items():
        snapshot.all_gpus.append(minor_id)
        if not pids:
            snapshot.available_gpus.append(minor_id)
    return snapshot
