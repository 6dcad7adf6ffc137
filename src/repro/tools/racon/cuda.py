"""The batched CUDA POA path (ClaraGenomics analogue).

Racon-GPU groups windows into ``--cudapoa-batches`` device batches; per
batch it copies the fragment data host-to-device, launches
``generatePOAKernel`` then ``generateConsensusKernel``, synchronises and
copies results back — exactly the call mix the paper's NVProf hotspot
chart (Fig. 4) shows.  Windows whose fragments exceed the device-batch
memory budget fall back to host polishing, producing the "additional CPU
polishing for the remaining portion of the reads that could not be
polished in GPU" of §VI-A.

Consensus results are computed with the *same* host functions as the CPU
path, so GPU and CPU outputs are bit-identical — the device model only
accounts time and memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gpusim.kernels import KernelLaunch, KernelTimingModel, MemcpyKind
from repro.tools.racon.consensus import RaconPolisher, Window

#: FLOPs charged per POA DP cell.  A cudapoa cell touches several
#: predecessors, branch bookkeeping and traceback pointers; 146 FLOPs/
#: cell against 28 B/cell of traffic puts the kernel's memory-time /
#: compute-time ratio at ~3.5, which is what the paper's NVProf stall
#: analysis reports (~70 % memory-dependency vs ~20 % execution-
#: dependency stalls).
FLOPS_PER_CELL = 146.0
#: Bytes of device traffic per DP cell (score matrix reads/writes).
BYTES_PER_CELL = 28.0
#: Threads per CUDA block in cudapoa kernels.
POA_BLOCK_THREADS = 64
#: Device-memory budget per window slot in a batch (scores + graph).
BYTES_PER_WINDOW_SLOT = 4 * 1024 * 1024


@dataclass
class CudaBatchStats:
    """Accounting for one device batch."""

    batch_index: int
    windows: int
    cells: int
    htod_bytes: float
    dtoh_bytes: float
    kernel_seconds: float
    transfer_seconds: float


@dataclass
class CudaPolishStats:
    """Aggregate accounting across a GPU-polished run."""

    batches: list[CudaBatchStats] = field(default_factory=list)
    windows_on_gpu: int = 0
    alloc_seconds: float = 0.0

    @property
    def kernel_seconds(self) -> float:
        """Total device-kernel time."""
        return sum(b.kernel_seconds for b in self.batches)

    @property
    def transfer_seconds(self) -> float:
        """Total PCIe transfer time."""
        return sum(b.transfer_seconds for b in self.batches)


class CudaPOABatcher:
    """Processes Racon windows through the simulated device in batches.

    Usable directly as a ``window_processor`` for
    :meth:`repro.tools.racon.consensus.RaconPolisher.polish`.

    Parameters
    ----------
    timing:
        The device timing model (owns device, clock, profiler, PID).
    batches:
        The ``--cudapoa-batches`` count: windows are spread across this
        many device batches.
    banded:
        Banding approximation: shrinks per-window DP cell counts (band
        half-width 64).
    """

    def __init__(
        self,
        timing: KernelTimingModel,
        batches: int = 1,
        banded: bool = False,
    ) -> None:
        if batches <= 0:
            raise ValueError("batches must be positive")
        self.timing = timing
        self.batches = batches
        self.banded = banded
        self.stats = CudaPolishStats()

    # ------------------------------------------------------------------ #
    def __call__(self, windows: list[Window], polisher: RaconPolisher) -> list[str]:
        """Process all windows; returns per-window consensus strings."""
        results: list[str | None] = [None] * len(windows)
        gpu_windows = [w for w in windows if w.fragments]
        cpu_windows = [w for w in windows if not w.fragments]
        for window in cpu_windows:
            results[window.index] = window.backbone_fragment

        # cudaMalloc of the working set, charged once (paper: ~2 s of the
        # 15 s GPU polish is allocation).
        if gpu_windows:
            slots = max(1, (len(gpu_windows) + self.batches - 1) // self.batches)
            alloc_start = self.timing.host.clock.now
            allocation = self.timing.malloc(
                min(
                    slots * BYTES_PER_WINDOW_SLOT,
                    self.timing.device.memory.free_bytes // 2 + 1,
                ),
                tag="cudapoa_workspace",
            )
            self.stats.alloc_seconds += self.timing.host.clock.now - alloc_start
        else:
            allocation = None

        for batch_index, batch in enumerate(self._split(gpu_windows)):
            if not batch:
                continue
            self._process_batch(batch_index, batch, polisher, results)

        if allocation is not None:
            self.timing.free(allocation)
        return [r if r is not None else "" for r in results]

    def _split(self, windows: list[Window]) -> list[list[Window]]:
        """Round-robin windows into ``batches`` groups (cudapoa's layout)."""
        groups: list[list[Window]] = [[] for _ in range(self.batches)]
        for i, window in enumerate(windows):
            groups[i % self.batches].append(window)
        return groups

    def _process_batch(
        self,
        batch_index: int,
        batch: list[Window],
        polisher: RaconPolisher,
        results: list[str | None],
    ) -> None:
        cells = sum(w.workload_cells(self.banded) for w in batch)
        htod = float(sum(sum(len(f) for f in w.fragments) for w in batch))
        t0 = self.timing.host.clock.now

        self.timing.memcpy(MemcpyKind.HOST_TO_DEVICE, htod)
        transfer = self.timing.host.clock.now - t0

        k0 = self.timing.host.clock.now
        self.timing.launch(
            KernelLaunch(
                name="generatePOAKernel",
                grid_blocks=max(1, len(batch)),
                threads_per_block=POA_BLOCK_THREADS,
                flops=cells * FLOPS_PER_CELL,
                bytes_read=cells * BYTES_PER_CELL * 0.75,
                bytes_written=cells * BYTES_PER_CELL * 0.25,
            )
        )
        self.timing.synchronize()
        consensus_cells = sum(len(w.backbone_fragment) * 4 for w in batch)
        self.timing.launch(
            KernelLaunch(
                name="generateConsensusKernel",
                grid_blocks=max(1, len(batch)),
                threads_per_block=POA_BLOCK_THREADS,
                flops=consensus_cells * 4.0,
                bytes_read=consensus_cells * 8.0,
                bytes_written=float(sum(len(w.backbone_fragment) for w in batch)),
            )
        )
        self.timing.synchronize()
        kernel_seconds = self.timing.host.clock.now - k0

        # The actual consensus values come from the shared host routines,
        # guaranteeing CPU/GPU result equality.
        dtoh = 0.0
        for window in batch:
            consensus = polisher.polish_window(window)
            results[window.index] = consensus
            dtoh += len(consensus)
        t1 = self.timing.host.clock.now
        self.timing.memcpy(MemcpyKind.DEVICE_TO_HOST, dtoh)
        self.timing.synchronize()
        transfer += self.timing.host.clock.now - t1

        self.stats.windows_on_gpu += len(batch)
        self.stats.batches.append(
            CudaBatchStats(
                batch_index=batch_index,
                windows=len(batch),
                cells=cells,
                htod_bytes=htod,
                dtoh_bytes=dtoh,
                kernel_seconds=kernel_seconds,
                transfer_seconds=transfer,
            )
        )
