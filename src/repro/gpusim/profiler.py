"""NVProf-like API-call accounting and stall attribution.

Paper Figs. 4 and 6 are NVProf *hotspot* charts: time shares of
``cudaStreamSynchronize``, ``cudaMemcpy`` (both directions), and the
ClaraGenomics kernels (``generatePOAKernel``, ``generateConsensusKernel``)
for Racon, and GEMM + launch/sync functions for Bonito.  §VI-A also cites
an NVProf *stall* analysis — ~70 % memory-dependency and ~20 %
execution-dependency stalls.

This module reproduces both: a flat API-call trace with grouping by call
name, and a stall attribution derived mechanistically from each kernel's
memory-bound vs compute-bound time split.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class ApiCallRecord:
    """One CUDA API call or kernel execution in the trace."""

    name: str
    category: str  # 'kernel' | 'sync' | 'memcpy_htod' | 'memcpy_dtoh' | 'alloc' | ...
    start: float
    duration: float
    device_index: int
    details: dict[str, Any] = field(default_factory=dict, hash=False, compare=False)


@dataclass(frozen=True)
class Hotspot:
    """Aggregated time for one API/kernel name."""

    name: str
    total_time: float
    calls: int
    pct: float


@dataclass(frozen=True)
class StallAnalysis:
    """Warp-stall attribution percentages (sum to 100)."""

    memory_dependency_pct: float
    execution_dependency_pct: float
    other_pct: float

    def as_dict(self) -> dict[str, float]:
        """Dict form used by the benchmark reporters."""
        return {
            "memory_dependency": self.memory_dependency_pct,
            "execution_dependency": self.execution_dependency_pct,
            "other": self.other_pct,
        }


#: Share of stalls attributed to causes other than the two the paper
#: reports (instruction fetch, pipeline busy, ...).  NVProf on Kepler
#: typically shows ~10 % residual.
OTHER_STALL_FRACTION = 0.10


class CudaProfiler:
    """Collects API-call records and summarises them like NVProf.

    The same profiler instance can be attached to several
    :class:`~repro.gpusim.kernels.KernelTimingModel` objects (e.g. a
    multi-GPU run); records carry their device index.
    """

    def __init__(self) -> None:
        self.records: list[ApiCallRecord] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def record_api(
        self,
        name: str,
        category: str,
        start: float,
        duration: float,
        device_index: int,
        details: dict[str, Any] | None = None,
    ) -> ApiCallRecord:
        """Append a generic API-call record."""
        record = ApiCallRecord(
            name=name,
            category=category,
            start=start,
            duration=duration,
            device_index=device_index,
            details=details or {},
        )
        self.records.append(record)
        return record

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def total_time(self, category: str | None = None) -> float:
        """Summed duration, optionally restricted to one category."""
        return sum(
            r.duration for r in self.records if category is None or r.category == category
        )

    def call_count(self, name: str | None = None) -> int:
        """Number of records, optionally restricted to one call name."""
        return sum(1 for r in self.records if name is None or r.name == name)

    def by_name(self) -> dict[str, list[ApiCallRecord]]:
        """Records grouped by API/kernel name."""
        groups: dict[str, list[ApiCallRecord]] = {}
        for record in self.records:
            groups.setdefault(record.name, []).append(record)
        return groups

    def hotspots(self, top: int | None = None) -> list[Hotspot]:
        """Per-name time shares, descending — the Fig. 4 / Fig. 6 series."""
        total = self.total_time()
        spots = [
            Hotspot(
                name=name,
                total_time=sum(r.duration for r in records),
                calls=len(records),
                pct=(100.0 * sum(r.duration for r in records) / total) if total else 0.0,
            )
            for name, records in self.by_name().items()
        ]
        spots.sort(key=lambda h: (-h.total_time, h.name))
        return spots[:top] if top is not None else spots

    # ------------------------------------------------------------------ #
    # stall attribution
    # ------------------------------------------------------------------ #
    def stall_analysis(
        self, other_fraction: float = OTHER_STALL_FRACTION
    ) -> StallAnalysis:
        """Attribute warp stalls from the kernels' roofline split.

        For each kernel the memory-bound fraction of its execution maps to
        *memory dependency* stalls and the compute-bound fraction to
        *execution dependency* stalls; a fixed residual covers everything
        else.  A memory-bound kernel mix (Racon's POA kernels move far
        more bytes than they compute FLOPs) therefore lands near the
        paper's ~70/20/10 split without hard-coding it.
        """
        kernels = [r for r in self.records if r.category == "kernel"]
        if not kernels:
            return StallAnalysis(0.0, 0.0, 100.0)
        mem = sum(r.details.get("memory_time", 0.0) for r in kernels)
        comp = sum(r.details.get("compute_time", 0.0) for r in kernels)
        denom = mem + comp
        if denom <= 0:
            return StallAnalysis(0.0, 0.0, 100.0)
        scale = 100.0 * (1.0 - other_fraction)
        return StallAnalysis(
            memory_dependency_pct=round(scale * mem / denom, 2),
            execution_dependency_pct=round(scale * comp / denom, 2),
            other_pct=round(100.0 * other_fraction, 2),
        )

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
