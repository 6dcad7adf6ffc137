"""GPU memory admission control — an extension of the Memory approach.

The paper's Process-Allocated-Memory strategy (§IV-C2) exists because
packing jobs onto memory-loaded GPUs "may cause stalling due to context
switching between tasks" — but it still *admits* the job.  The natural
next step, implemented here, is admission control: a tool may declare
its expected device-memory footprint (job parameter ``gpu_memory_mib``),
and the mapper rejects device selections whose free framebuffer cannot
hold it, falling back — user-agnostically, as Challenge II demands —
to CPU execution instead of letting the tool die with a CUDA OOM
mid-run.

Fleet-scale note: the columnar tier (:mod:`repro.cluster.fleet`) makes
the analogous admit-or-degrade call per arrival *batch* against slot
and queue capacity rather than per job against framebuffer bytes — the
same degrade-before-shed shape at aggregate granularity (see
``docs/fleet-scale.md``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.allocation import AllocationDecision
from repro.core.gpu_usage import GpuUsageSnapshot
from repro.galaxy.job import GalaxyJob

#: Default assumed footprint when a tool declares none: the CUDA context
#: plus a small working set.
DEFAULT_FOOTPRINT_MIB = 256


@dataclass(frozen=True)
class AdmissionResult:
    """Outcome of one admission check."""

    admitted: bool
    decision: AllocationDecision | None
    required_mib: int
    reason: str


class GpuMemoryAdmissionController:
    """Filters allocation decisions by per-device free memory.
    """

    #: Assumed requirement for tools that declare none.
    default_footprint_mib = DEFAULT_FOOTPRINT_MIB
    #: Extra free memory that must remain after placement (driver
    #: fragmentation slack).
    headroom_mib = 128

    def __init__(self) -> None:
        self.log: list[AdmissionResult] = []

    def required_mib(self, job: GalaxyJob) -> int:
        """The footprint a job declares (or the default)."""
        declared = job.params.get("gpu_memory_mib")
        if declared is None:
            return self.default_footprint_mib
        required = int(declared)
        if required <= 0:
            raise ValueError(f"gpu_memory_mib must be positive, got {declared}")
        return required

    def check(
        self,
        job: GalaxyJob,
        decision: AllocationDecision,
        snapshot: GpuUsageSnapshot,
    ) -> AdmissionResult:
        """Trim a decision to the devices that can hold the footprint.

        Multi-device selections are filtered (the job may still scatter
        over the subset that fits); a selection with no fitting device is
        rejected outright.
        """
        required = self.required_mib(job)
        threshold = required + self.headroom_mib
        fitting = [
            gid
            for gid in decision.gpu_ids
            if snapshot.fb_free_mib.get(gid, 0) >= threshold
        ]
        if not fitting:
            result = AdmissionResult(
                admitted=False,
                decision=None,
                required_mib=required,
                reason=(
                    f"no selected device has {threshold} MiB free "
                    f"(need {required} + {self.headroom_mib} headroom)"
                ),
            )
        elif len(fitting) == len(decision.gpu_ids):
            result = AdmissionResult(
                admitted=True,
                decision=decision,
                required_mib=required,
                reason="all selected devices fit the footprint",
            )
        else:
            trimmed = AllocationDecision(
                gpu_ids=tuple(fitting),
                strategy=decision.strategy,
                reason=decision.reason + f" (trimmed to fit {required} MiB)",
            )
            result = AdmissionResult(
                admitted=True,
                decision=trimmed,
                required_mib=required,
                reason="selection trimmed to devices with enough free memory",
            )
        self.log.append(result)
        return result
