"""Calibrated Racon performance model (paper Figs. 3, 7 and §VI-A).

Two scales are modelled:

**Unit model** (Figs. 3/7): the paper sweeps CPU thread count,
``--cudapoa-batches`` and banding for a fixed work unit and reports
seconds.  The model decomposes unit time into a host preparation part
(thread-scaled, with contention penalties past the sweet spot) and a
device part (occupancy improves with batches for small banded kernels;
per-batch overhead dominates for large unbanded kernels).  Coefficients
are calibrated to the paper's quoted optima:

* bare metal, unbanded: best 1.72 s at 4 threads / 1 batch;
* bare metal, banded: best 1.67 s at 4 threads / 16 batches;
* bare metal CPU-only: 3.22 s at 4 threads (~2x slower than GPU);
* containerized, unbanded: best at 2 threads / 4 batches;
* containerized, banded: best at 2 threads / 8 batches;
* container launch + cold-start overhead ~0.6 s (~36 % of compute time).

**End-to-end model** (§VI-A): for paper-scale datasets, anchored to the
17 GB Alzheimers NFL measurements — CPU ~410 s end-to-end with 117 s of
polishing; GPU ~200 s end-to-end with 15 s of polishing (2 s allocation
+ 13 s kernels + ~0.1 ms CPU tail) plus ~40 s of CUDA API overhead
(chunked transfers + synchronisation).  Other datasets scale these
components by size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.workloads.datasets import ALZHEIMERS_NFL, DatasetDescriptor

# ---- unit model calibration (Figs. 3 and 7) --------------------------- #
#: CPU-only unit time: serial + parallel/threads; 3.22 s at 4 threads.
CPU_SERIAL_S = 0.90
CPU_PARALLEL_S = 9.28

#: GPU host-side preparation, bare metal: 0.475 s at 4 threads.
BARE_PREP_BASE_S = 0.25
BARE_PREP_PARALLEL_S = 0.90
#: CPU contention past 4 threads (feeding threads fight the tool's own).
BARE_THREAD_PENALTY_S = 0.05
BARE_THREAD_SWEET_SPOT = 4

#: In-container preparation: cgroup CPU limits move the sweet spot to 2.
CONTAINER_PREP_BASE_S = 0.25
CONTAINER_PREP_PARALLEL_S = 0.55
CONTAINER_THREAD_PENALTY_S = 0.12
CONTAINER_THREAD_SWEET_SPOT = 2

#: Unbanded kernels: one batch already fills the device; extra batches
#: only add launch/staging overhead.
UNBANDED_KERNEL_S = 1.245
UNBANDED_BATCH_OVERHEAD = 0.04

#: Banded kernels are small: occupancy o(b) = b / (b + OCC_HALF) grows
#: with batch count, against a linear per-batch overhead.
BANDED_KERNEL_S = 0.946
BANDED_OCC_HALF = 1.5
BANDED_BATCH_OVERHEAD_S = 0.01

#: Container staging effects: pinned-memory staging prefers mid-sized
#: unbanded batches (optimum 4) and penalises very high banded counts.
CONTAINER_UNBANDED_STAGING = 0.06
CONTAINER_BANDED_STAGING_S = 0.02
CONTAINER_BANDED_STAGING_KNEE = 8

#: Docker launch + cold start (matches the simulated runtime's charges).
CONTAINER_OVERHEAD_S = 0.61

# ---- end-to-end calibration (§VI-A, 17 GB Alzheimers NFL) ------------- #
CPU_PIPELINE_NFL_S = 293.0
CPU_POLISH_NFL_S = 117.0
GPU_PIPELINE_NFL_S = 145.0
GPU_ALLOC_S = 2.0
GPU_KERNEL_NFL_S = 13.0
GPU_API_OVERHEAD_NFL_S = 40.0
GPU_CPU_TAIL_S = 0.0001
#: Banding shrinks the paper-scale kernel time by this factor.
BANDED_KERNEL_FACTOR = 0.76
#: Fraction of polish work that stays parallel across threads.
POLISH_PARALLEL_FRACTION = 0.85
REFERENCE_THREADS = 4


@dataclass(frozen=True)
class RaconTiming:
    """A predicted Racon execution time with its phase breakdown."""

    device: str  # 'cpu' | 'gpu'
    total_seconds: float
    breakdown: dict[str, float] = field(default_factory=dict, hash=False)
    threads: int = 4
    batches: int | None = None
    banded: bool = False
    containerized: bool = False


class RaconPerfModel:
    """Racon timing predictions at both unit and paper scale."""

    # ------------------------------------------------------------------ #
    # unit model (Figs. 3 and 7)
    # ------------------------------------------------------------------ #
    def cpu_unit_time(self, threads: int) -> float:
        """CPU-only unit time across thread counts (Fig. 3 CPU series)."""
        if threads <= 0:
            raise ValueError("threads must be positive")
        return CPU_SERIAL_S + CPU_PARALLEL_S / threads

    def _prep_time(self, threads: int, containerized: bool) -> float:
        if threads <= 0:
            raise ValueError("threads must be positive")
        if containerized:
            base, parallel = CONTAINER_PREP_BASE_S, CONTAINER_PREP_PARALLEL_S
            penalty, sweet = CONTAINER_THREAD_PENALTY_S, CONTAINER_THREAD_SWEET_SPOT
        else:
            base, parallel = BARE_PREP_BASE_S, BARE_PREP_PARALLEL_S
            penalty, sweet = BARE_THREAD_PENALTY_S, BARE_THREAD_SWEET_SPOT
        return base + parallel / threads + penalty * max(0, threads - sweet)

    def _kernel_time(self, batches: int, banded: bool, containerized: bool) -> float:
        if batches <= 0:
            raise ValueError("batches must be positive")
        if banded:
            occupancy = batches / (batches + BANDED_OCC_HALF)
            time = BANDED_KERNEL_S / occupancy + BANDED_BATCH_OVERHEAD_S * batches
            if containerized:
                time += CONTAINER_BANDED_STAGING_S * max(
                    0, batches - CONTAINER_BANDED_STAGING_KNEE
                )
            return time
        time = UNBANDED_KERNEL_S * (1.0 + UNBANDED_BATCH_OVERHEAD * (batches - 1))
        if containerized:
            time = UNBANDED_KERNEL_S * (
                1.0 + CONTAINER_UNBANDED_STAGING * abs(math.log2(batches) - 2.0)
            )
        return time

    def gpu_unit_compute_time(
        self,
        threads: int,
        batches: int = 1,
        banded: bool = False,
        containerized: bool = False,
    ) -> float:
        """GPU unit time *excluding* the container launch overhead.

        This is what the in-container tool process itself spends; the
        container runtime's launch/cold-start charge is added by the
        runner (or by :meth:`gpu_unit_time` for standalone predictions).
        """
        return self._prep_time(threads, containerized) + self._kernel_time(
            batches, banded, containerized
        )

    def gpu_unit_time(
        self,
        threads: int,
        batches: int = 1,
        banded: bool = False,
        containerized: bool = False,
    ) -> float:
        """GPU unit time for one sweep configuration.

        Containerized times include the ~0.6 s launch/cold-start
        overhead, as the paper's Fig. 7 measurements do.
        """
        time = self.gpu_unit_compute_time(threads, batches, banded, containerized)
        if containerized:
            time += CONTAINER_OVERHEAD_S
        return time

    def best_gpu_config(
        self,
        banded: bool,
        containerized: bool = False,
        thread_choices: tuple[int, ...] = (1, 2, 4, 8),
        batch_choices: tuple[int, ...] = (1, 4, 8, 16),
    ) -> tuple[int, int, float]:
        """(threads, batches, seconds) minimising the unit time."""
        best: tuple[int, int, float] | None = None
        for threads in thread_choices:
            for batches in batch_choices:
                t = self.gpu_unit_time(threads, batches, banded, containerized)
                if best is None or t < best[2]:
                    best = (threads, batches, t)
        assert best is not None
        return best

    # ------------------------------------------------------------------ #
    # end-to-end model (§VI-A)
    # ------------------------------------------------------------------ #
    def _scale(self, dataset: DatasetDescriptor) -> float:
        return dataset.size_bytes / ALZHEIMERS_NFL.size_bytes

    def _thread_factor(self, threads: int) -> float:
        serial = 1.0 - POLISH_PARALLEL_FRACTION
        return serial + POLISH_PARALLEL_FRACTION * REFERENCE_THREADS / threads

    def cpu_end_to_end(
        self, dataset: DatasetDescriptor = ALZHEIMERS_NFL, threads: int = 4
    ) -> RaconTiming:
        """Paper-scale CPU-only run: pipeline + polish."""
        scale = self._scale(dataset)
        polish = CPU_POLISH_NFL_S * scale * self._thread_factor(threads)
        pipeline = CPU_PIPELINE_NFL_S * scale
        return RaconTiming(
            device="cpu",
            total_seconds=pipeline + polish,
            breakdown={"pipeline": pipeline, "polish": polish},
            threads=threads,
        )

    def gpu_end_to_end(
        self,
        dataset: DatasetDescriptor = ALZHEIMERS_NFL,
        threads: int = 4,
        batches: int = 1,
        banded: bool = False,
        containerized: bool = False,
    ) -> RaconTiming:
        """Paper-scale GPU run with the §VI-A phase breakdown."""
        scale = self._scale(dataset)
        kernel = GPU_KERNEL_NFL_S * scale
        if banded:
            kernel *= BANDED_KERNEL_FACTOR
        api = GPU_API_OVERHEAD_NFL_S * scale
        pipeline = GPU_PIPELINE_NFL_S * scale
        breakdown = {
            "pipeline": pipeline,
            "gpu_alloc": GPU_ALLOC_S,
            "gpu_kernels": kernel,
            "cpu_tail": GPU_CPU_TAIL_S,
            "cuda_api_overhead": api,
        }
        if containerized:
            breakdown["container_overhead"] = CONTAINER_OVERHEAD_S
        return RaconTiming(
            device="gpu",
            total_seconds=sum(breakdown.values()),
            breakdown=breakdown,
            threads=threads,
            batches=batches,
            banded=banded,
            containerized=containerized,
        )

    def speedup(
        self, dataset: DatasetDescriptor = ALZHEIMERS_NFL, threads: int = 4
    ) -> float:
        """End-to-end GPU speedup over CPU (paper: ~2x on NFL)."""
        return (
            self.cpu_end_to_end(dataset, threads).total_seconds
            / self.gpu_end_to_end(dataset, threads).total_seconds
        )
