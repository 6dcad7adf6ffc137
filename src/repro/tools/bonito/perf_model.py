"""Calibrated Bonito performance model (paper Fig. 5 / §VI-A).

Anchors from the paper:

* CPU basecalling of the 1.5 GB *Acinetobacter pittii* FAST5 set ran
  "more than 210 hours" before being cut off;
* the 5.2 GB *Klebsiella pneumoniae* set "is approximated to last 4x
  longer than the smaller dataset (more than 850 hours)";
* "the speedup for GPU vs. CPU execution time is more than 50x".

The model is rate-based: CPU basecalling throughput in bytes of FAST5
signal per second is calibrated so the 1.5 GB set takes just over 210 h,
and the GPU multiplies throughput by a calibrated >50x factor.  Dataset
time scales with byte size, which reproduces the paper's ~4x
relationship between the two sets (5.2 / 1.5 = 3.5, "approximated" as 4x
in the paper text).  The GPU-side phase split follows the Fig. 6 hotspot
mix (GEMM-dominated, then launch/sync, then transfers).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.workloads.datasets import ACINETOBACTER_PITTII, DatasetDescriptor

#: CPU throughput: 1.5 GiB in slightly more than 210 hours.
CPU_BYTES_PER_SECOND = ACINETOBACTER_PITTII.size_bytes / (211.0 * 3600.0)
#: GPU speedup factor — "more than 50x".
GPU_SPEEDUP = 52.0
#: GPU-side phase fractions (sum to 1), shaped after Fig. 6: GEMM
#: kernels dominate, then launch/synchronisation overhead, then PCIe.
GPU_PHASE_FRACTIONS = {
    "gemm_kernels": 0.46,
    "kernel_launch": 0.24,
    "kernel_sync": 0.19,
    "memcpy": 0.08,
    "decode_cpu": 0.03,
}


@dataclass(frozen=True)
class BonitoTiming:
    """A predicted Bonito execution with phase breakdown."""

    device: str  # 'cpu' | 'gpu'
    dataset: str
    total_seconds: float
    breakdown: dict[str, float] = field(default_factory=dict, hash=False)

    @property
    def total_hours(self) -> float:
        """Total in hours — the unit of the paper's Fig. 5."""
        return self.total_seconds / 3600.0


class BonitoPerfModel:
    """Bonito timing predictions at paper scale."""

    cpu_bytes_per_second = CPU_BYTES_PER_SECOND
    gpu_speedup = GPU_SPEEDUP

    def cpu_time(self, dataset: DatasetDescriptor) -> BonitoTiming:
        """Paper-scale CPU basecalling time."""
        total = dataset.size_bytes / self.cpu_bytes_per_second
        return BonitoTiming(
            device="cpu",
            dataset=dataset.name,
            total_seconds=total,
            breakdown={"basecalling_cpu": total},
        )

    def gpu_time(self, dataset: DatasetDescriptor) -> BonitoTiming:
        """Paper-scale GPU basecalling time with the Fig. 6 phase mix."""
        total = dataset.size_bytes / (self.cpu_bytes_per_second * self.gpu_speedup)
        breakdown = {
            phase: total * fraction for phase, fraction in GPU_PHASE_FRACTIONS.items()
        }
        return BonitoTiming(
            device="gpu",
            dataset=dataset.name,
            total_seconds=total,
            breakdown=breakdown,
        )
