"""Galaxy tool executors for Racon and Bonito.

An executor stands in for the tool binary Galaxy would spawn: it
receives the rendered argv and a
:class:`~repro.galaxy.app.ToolExecutionContext`, performs the tool's
work against the simulated hardware (advancing the virtual clock,
launching device kernels, recording into the profiler), and returns a
:class:`~repro.galaxy.app.ToolExecutionResult`.

Three workload modes, chosen by the job parameter ``workload``:

``unit`` (default)
    The Fig. 3 / Fig. 7 work unit: time comes from the calibrated
    :class:`~repro.tools.racon.perf_model.RaconPerfModel`, rendered into
    a representative device activity (prep phase, one POA kernel pass)
    so monitors and profilers observe realistic state.
``dataset``
    A paper-scale dataset run (``dataset`` parameter names an entry of
    :data:`repro.workloads.datasets.PAPER_DATASETS`): the §VI-A phase
    structure is executed mechanistically — allocation, chunked
    transfers, kernels, pipeline — summing to the calibrated end-to-end
    anchors.
``payload``
    Real data: the actual algorithms run on the miniature payload
    (``payload`` parameter), producing genuine polished sequences or
    basecalls; device time is whatever the kernels cost.  The branches
    of this mode import the algorithms (and so NumPy) themselves: the
    timed modes load neither.

The timed modes shape device activity with :func:`kernel_for_duration`,
which designs a kernel for a time budget; a streamed run designs its
kernels once and launches the same objects for every chunk.

Each tool has its own installer (:func:`install_racon`,
:func:`install_bonito`, :func:`install_seqstats`, keyed by tool id in
:data:`PAPER_TOOLS`): the wrapper parse plus the executors it names.
:func:`register_paper_tools` runs all three; a paper CLI command runs
only the installers of the tools it uses.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

from repro.galaxy.app import GalaxyApp, ToolExecutionContext, ToolExecutionResult
from repro.gpusim.kernels import (
    ACHIEVABLE_FRACTION,
    KernelLaunch,
    KernelTimingModel,
    MemcpyKind,
)
from repro.tools.bonito.perf_model import GPU_PHASE_FRACTIONS, BonitoPerfModel
from repro.tools.racon.perf_model import GPU_CPU_TAIL_S, RaconPerfModel
from repro.workloads.datasets import ALZHEIMERS_NFL, PAPER_DATASETS, DatasetDescriptor

if TYPE_CHECKING:
    from repro.tools.bonito.signal import PoreModel

GIB = 1024**3
MIB = 1024**2

#: Chunk size for streaming paper-scale inputs through device memory.
TRANSFER_CHUNK_BYTES = 256 * MIB
#: Effective fraction of pinned PCIe bandwidth that Racon-GPU's unpinned
#: staged transfers achieve.  0.075 x 12 GB/s = 0.9 GB/s reproduces the
#: ~40 s measured for 2 x 17 GB of traffic (paper §VI-A).
RACON_PCIE_EFFICIENCY = 0.075
#: cudapoa working-set allocation; 8 GiB at the malloc model's
#: 0.25 s/GiB yields the paper's ~2 s allocation phase.
RACON_WORKSPACE_BYTES = 8 * GIB
#: CPU throughput assumed when timing real-payload CPU GEMMs.
CPU_EFFECTIVE_GFLOPS = 5.0


# --------------------------------------------------------------------- #
# small helpers
# --------------------------------------------------------------------- #
def _flag_value(argv: Sequence[str], flag: str, default: int) -> int:
    """Integer value following ``flag`` in argv, or ``default``."""
    for i, token in enumerate(argv):
        if token == flag and i + 1 < len(argv):
            try:
                return int(argv[i + 1])
            except ValueError:
                return default
    return default


def _dataset_from(ctx: ToolExecutionContext) -> DatasetDescriptor:
    name = ctx.job.params.get("dataset", ALZHEIMERS_NFL.name)
    if isinstance(name, DatasetDescriptor):
        return name
    try:
        return PAPER_DATASETS[name]
    except KeyError:
        raise ValueError(
            f"unknown dataset {name!r}; expected one of {sorted(PAPER_DATASETS)}"
        ) from None


def _timing_for(ctx: ToolExecutionContext, pcie_efficiency: float = 1.0) -> KernelTimingModel:
    """A device timing model bound to the job's first visible GPU."""
    if not ctx.gpu_devices:
        raise RuntimeError("GPU executor invoked without visible devices")
    return KernelTimingModel(
        host=ctx.node.gpu_host,
        device=ctx.gpu_devices[0],
        profiler=ctx.profiler,
        pid=ctx.pid,
        pcie_efficiency=pcie_efficiency,
    )


def kernel_for_duration(
    timing: KernelTimingModel,
    name: str,
    seconds: float,
    mem_to_comp: float = 3.5,
    grid_blocks: int = 60,
) -> KernelLaunch | None:
    """A kernel of 256-thread blocks engineered to run for ~``seconds`` on
    the device, or ``None`` when the budget is not positive.

    ``mem_to_comp`` sets the memory-time / compute-time ratio, which is
    what the stall-attribution model reads: >1 yields memory-dependency-
    dominated stalls (Racon's POA kernels), <1 execution-dominated ones
    (Bonito's GEMMs).  A streamed job designs its kernel once and
    launches the same object for every chunk.
    """
    if seconds <= 0:
        return None
    probe = KernelLaunch(
        name=name,
        grid_blocks=grid_blocks,
        threads_per_block=256,
        flops=1.0,
        bytes_read=1.0,
        bytes_written=0.0,
    )
    occupancy = timing.occupancy(probe)
    arch = timing.device.arch
    achievable_bw = arch.memory_bandwidth_gbps * ACHIEVABLE_FRACTION * 1e9
    achievable_flops = arch.peak_gflops * ACHIEVABLE_FRACTION * occupancy * 1e9
    if mem_to_comp >= 1.0:
        memory_time = seconds
        compute_time = seconds / mem_to_comp
    else:
        compute_time = seconds
        memory_time = seconds * mem_to_comp
    total_bytes = memory_time * achievable_bw
    return KernelLaunch(
        name=name,
        grid_blocks=grid_blocks,
        threads_per_block=256,
        flops=compute_time * achievable_flops,
        bytes_read=total_bytes * 0.75,
        bytes_written=total_bytes * 0.25,
    )


# --------------------------------------------------------------------- #
# Racon executors
# --------------------------------------------------------------------- #
def racon_cpu_executor(argv: list[str], ctx: ToolExecutionContext) -> ToolExecutionResult:
    """The ``racon`` binary: CPU-only polishing."""
    model = RaconPerfModel()
    threads = _flag_value(argv, "-t", int(ctx.job.params.get("threads", 4)))
    workload = ctx.job.params.get("workload", "unit")

    if workload == "payload":
        from repro.tools.racon.consensus import RaconPolisher

        payload = ctx.job.params["payload"]
        polisher = RaconPolisher(
            window_length=int(ctx.job.params.get("window_length", 250))
        )
        result = polisher.polish(
            payload["backbone"], payload["reads"], payload["mappings"]
        )
        ctx.clock.advance(0.05)  # nominal wall time of a miniature run
        return ToolExecutionResult(
            stdout=f"polished {result.windows_polished}/{result.windows_total} windows",
            result=result,
            breakdown={"polish": 0.05},
        )

    if workload == "dataset":
        timing = model.cpu_end_to_end(_dataset_from(ctx), threads=threads)
        ctx.clock.advance(timing.total_seconds)
        return ToolExecutionResult(
            stdout=f"racon cpu finished in {timing.total_seconds:.1f}s",
            result=timing,
            breakdown=dict(timing.breakdown),
        )

    duration = model.cpu_unit_time(threads)
    ctx.clock.advance(duration)
    return ToolExecutionResult(
        stdout=f"racon cpu unit finished in {duration:.2f}s",
        result=duration,
        breakdown={"cpu_total": duration},
    )


def racon_gpu_executor(argv: list[str], ctx: ToolExecutionContext) -> ToolExecutionResult:
    """The ``racon_gpu`` binary: GPU-accelerated polishing.

    Falls back to the CPU path when GYAN did not enable GPUs for this
    job — the user-agnostic degradation the paper's Challenge II demands.
    """
    if not ctx.gpu_enabled or not ctx.gpu_devices:
        return racon_cpu_executor(argv, ctx)
    model = RaconPerfModel()
    threads = _flag_value(argv, "-t", int(ctx.job.params.get("threads", 4)))
    batches = _flag_value(
        argv, "--cudapoa-batches", int(ctx.job.params.get("batches", 1))
    )
    banded = "-b" in argv or str(ctx.job.params.get("banding", "false")) == "true"
    workload = ctx.job.params.get("workload", "unit")
    containerized = ctx.job.metrics.container is not None

    if workload == "payload":
        from repro.tools.racon.consensus import RaconPolisher
        from repro.tools.racon.cuda import CudaPOABatcher

        payload = ctx.job.params["payload"]
        timing = _timing_for(ctx)
        batcher = CudaPOABatcher(timing, batches=batches, banded=banded)
        polisher = RaconPolisher(
            window_length=int(ctx.job.params.get("window_length", 250)),
            banded=banded,
        )
        result = polisher.polish(
            payload["backbone"],
            payload["reads"],
            payload["mappings"],
            window_processor=batcher,
        )
        return ToolExecutionResult(
            stdout=(
                f"polished {result.windows_polished}/{result.windows_total} windows "
                f"on GPU {timing.device.minor_number}"
            ),
            result=result,
            breakdown={
                "gpu_alloc": batcher.stats.alloc_seconds,
                "gpu_kernels": batcher.stats.kernel_seconds,
                "cuda_api_overhead": batcher.stats.transfer_seconds,
            },
        )

    if workload == "dataset":
        return _racon_gpu_dataset(ctx, model, threads, batches, banded)

    duration = model.gpu_unit_compute_time(threads, batches, banded, containerized)
    timing = _timing_for(ctx)
    prep = model._prep_time(threads, containerized)
    timing.api_call("racon_host_prep", prep, category="cpu")
    kernel = kernel_for_duration(
        timing,
        "generatePOAKernel",
        duration - prep,
        mem_to_comp=3.5,
        grid_blocks=max(15, batches * 15),
    )
    if kernel is not None:
        timing.launch(kernel)
    timing.synchronize()
    return ToolExecutionResult(
        stdout=f"racon gpu unit finished in {duration:.2f}s",
        result=duration,
        breakdown={"gpu_total": duration},
    )


def _racon_gpu_dataset(
    ctx: ToolExecutionContext,
    model: RaconPerfModel,
    threads: int,
    batches: int,
    banded: bool,
) -> ToolExecutionResult:
    """The §VI-A paper-scale GPU run, executed phase by phase."""
    dataset = _dataset_from(ctx)
    predicted = model.gpu_end_to_end(dataset, threads, batches, banded)
    scale = dataset.size_bytes / ALZHEIMERS_NFL.size_bytes
    timing = _timing_for(ctx, pcie_efficiency=RACON_PCIE_EFFICIENCY)

    start = ctx.clock.now
    # Shared pipeline (I/O, overlap handling, stitching) on the host.
    timing.api_call(
        "racon_pipeline", predicted.breakdown["pipeline"], category="cpu"
    )
    # cudapoa working-set allocation (~2 s, from the malloc cost model).
    t0 = ctx.clock.now
    workspace = timing.malloc(
        min(RACON_WORKSPACE_BYTES, timing.device.memory.free_bytes - 512 * MIB),
        tag="cudapoa_workspace",
    )
    alloc_seconds = ctx.clock.now - t0

    kernel_budget = predicted.breakdown["gpu_kernels"]
    n_chunks = max(1, math.ceil(dataset.size_bytes / TRANSFER_CHUNK_BYTES))
    chunk_bytes = dataset.size_bytes / n_chunks
    # Every chunk runs the same two kernels: design them once.
    designs = (
        kernel_for_duration(
            timing,
            "generatePOAKernel",
            kernel_budget * 0.98 / n_chunks,
            mem_to_comp=3.5,
            grid_blocks=max(15, batches * 15),
        ),
        kernel_for_duration(
            timing,
            "generateConsensusKernel",
            kernel_budget * 0.02 / n_chunks,
            mem_to_comp=3.0,
            grid_blocks=max(15, batches * 15),
        ),
    )
    # ... and every chunk repeats the same calls: price them once.
    launches = tuple(
        timing.price_kernel(kernel) for kernel in designs if kernel is not None
    )
    sums = timing.replay(
        (
            ("transfer", (timing.price_memcpy(MemcpyKind.HOST_TO_DEVICE, chunk_bytes),)),
            ("kernels", launches),
            (None, (timing.price_sync(),)),
            ("transfer", (timing.price_memcpy(MemcpyKind.DEVICE_TO_HOST, chunk_bytes),)),
        ),
        n_chunks,
    )
    kernel_seconds = sums["kernels"]
    transfer_seconds = sums["transfer"]
    # The residual reads cudapoa could not place on the device.
    timing.api_call("racon_cpu_tail", GPU_CPU_TAIL_S * scale, category="cpu")
    timing.free(workspace)
    total = ctx.clock.now - start
    return ToolExecutionResult(
        stdout=f"racon gpu finished {dataset.name} in {total:.1f}s",
        result=predicted,
        breakdown={
            "pipeline": predicted.breakdown["pipeline"],
            "gpu_alloc": alloc_seconds,
            "gpu_kernels": kernel_seconds,
            "cuda_api_overhead": transfer_seconds,
            "cpu_tail": GPU_CPU_TAIL_S * scale,
            "total": total,
        },
    )


# --------------------------------------------------------------------- #
# Bonito executors
# --------------------------------------------------------------------- #
def bonito_executor(argv: list[str], ctx: ToolExecutionContext) -> ToolExecutionResult:
    """The ``bonito`` binary (``bonito basecaller``), CPU or GPU.

    Device selection follows the rendered command line: GYAN's wrapper
    emits ``--device cuda`` only when ``__galaxy_gpu_enabled__`` was
    true.
    """
    use_gpu = "cuda" in argv and ctx.gpu_enabled and bool(ctx.gpu_devices)
    workload = ctx.job.params.get("workload", "dataset")
    model = BonitoPerfModel()

    if workload == "payload":
        from repro.tools.bonito.basecaller import Basecaller

        payload = ctx.job.params["payload"]
        pore: PoreModel = payload["pore"]
        reads = payload["reads"]
        timing = _timing_for(ctx) if use_gpu else None
        basecaller = Basecaller(pore, timing=timing)
        start = ctx.clock.now
        result = basecaller.basecall(reads)
        if timing is None:
            ctx.clock.advance(result.total_flops / (CPU_EFFECTIVE_GFLOPS * 1e9))
        duration = ctx.clock.now - start
        return ToolExecutionResult(
            stdout=(
                f"basecalled {len(result.records)} reads, "
                f"mean identity {result.mean_identity:.3f}"
            ),
            result=result,
            breakdown={"basecalling": duration},
        )

    if workload == "unit":
        # A short representative slice of basecalling used by the
        # scheduling experiments (Cases 1-4), where only placement and
        # occupancy matter, not the multi-hour dataset time.
        if use_gpu:
            timing = _timing_for(ctx)
            kernel = kernel_for_duration(
                timing, "sgemm_128x64_nn", 20.0, mem_to_comp=0.25, grid_blocks=120
            )
            if kernel is not None:
                timing.launch(kernel)
            timing.synchronize()
            timing.api_call("ctc_decode_cpu", 2.0, category="cpu")
        else:
            ctx.clock.advance(22.0 * 52.0)  # the same slice, ~52x slower
        return ToolExecutionResult(
            stdout="bonito unit slice finished",
            breakdown={"basecalling": 22.0 if use_gpu else 22.0 * 52.0},
        )

    dataset = _dataset_from(ctx)
    if not use_gpu:
        timing_cpu = model.cpu_time(dataset)
        ctx.clock.advance(timing_cpu.total_seconds)
        return ToolExecutionResult(
            stdout=f"bonito cpu finished {dataset.name} in {timing_cpu.total_hours:.1f}h",
            result=timing_cpu,
            breakdown=dict(timing_cpu.breakdown),
        )

    predicted = model.gpu_time(dataset)
    timing = _timing_for(ctx)
    total = predicted.total_seconds
    start = ctx.clock.now
    # Transfers: staged FAST5 in, FASTA out.
    timing.api_call(
        "cudaMemcpyHtoD",
        total * GPU_PHASE_FRACTIONS["memcpy"] * 0.8,
        category="memcpy_htod",
    )
    # GEMM kernels dominate (Fig. 6): a handful of large aggregated
    # launches, compute-bound.
    gemm_budget = total * GPU_PHASE_FRACTIONS["gemm_kernels"]
    n_launches = 32
    gemm = kernel_for_duration(
        timing,
        "sgemm_128x64_nn",
        gemm_budget / n_launches,
        mem_to_comp=0.25,
        grid_blocks=120,
    )
    if gemm is not None:
        timing.replay(((None, (timing.price_kernel(gemm),)),), n_launches)
    # Launch and synchronisation overhead of the framework's many small
    # kernels, aggregated.
    timing.api_call(
        "cudaLaunchKernel", total * GPU_PHASE_FRACTIONS["kernel_launch"], category="launch"
    )
    timing.api_call(
        "cudaStreamSynchronize", total * GPU_PHASE_FRACTIONS["kernel_sync"], category="sync"
    )
    timing.api_call(
        "cudaMemcpyDtoH",
        total * GPU_PHASE_FRACTIONS["memcpy"] * 0.2,
        category="memcpy_dtoh",
    )
    timing.api_call(
        "ctc_decode_cpu", total * GPU_PHASE_FRACTIONS["decode_cpu"], category="cpu"
    )
    elapsed = ctx.clock.now - start
    return ToolExecutionResult(
        stdout=f"bonito gpu finished {dataset.name} in {elapsed / 3600.0:.2f}h",
        result=predicted,
        breakdown=dict(predicted.breakdown),
    )


def seqstats_executor(argv: list[str], ctx: ToolExecutionContext) -> ToolExecutionResult:
    """The CPU-only control tool: trivial, never touches a GPU."""
    ctx.clock.advance(0.5)
    return ToolExecutionResult(stdout="seqstats ok", breakdown={"cpu_total": 0.5})


# --------------------------------------------------------------------- #
# registration
# --------------------------------------------------------------------- #
# Each installer imports ``parse_tool_xml`` when it runs, so whatever
# stands at that name in repro.galaxy.tool_xml then (a tracer, a test's
# counter) sees the parse.
def install_racon(app: GalaxyApp) -> None:
    """Install the Racon wrapper (with its macros file) and executors."""
    from repro.galaxy.tool_xml import parse_tool_xml
    from repro.tools.wrappers import racon_macros_xml, racon_tool_xml

    app.install_tool(
        parse_tool_xml(racon_tool_xml(), macros={"macros.xml": racon_macros_xml()})
    )
    app.register_executor("racon", racon_cpu_executor)
    app.register_executor("racon_gpu", racon_gpu_executor)


def install_bonito(app: GalaxyApp) -> None:
    """Install the Bonito wrapper and executor."""
    from repro.galaxy.tool_xml import parse_tool_xml
    from repro.tools.wrappers import bonito_tool_xml

    app.install_tool(parse_tool_xml(bonito_tool_xml()))
    app.register_executor("bonito", bonito_executor)


def install_seqstats(app: GalaxyApp) -> None:
    """Install the CPU-only control tool."""
    from repro.galaxy.tool_xml import parse_tool_xml
    from repro.tools.wrappers import CPU_ONLY_TOOL_XML

    app.install_tool(parse_tool_xml(CPU_ONLY_TOOL_XML))
    app.register_executor("seqstats", seqstats_executor)


#: Tool id -> installer, in :func:`register_paper_tools` order.  A paper
#: CLI command installs the tools it runs and parses no other wrapper.
PAPER_TOOLS = {
    "racon": install_racon,
    "bonito": install_bonito,
    "seqstats": install_seqstats,
}


def register_paper_tools(app: GalaxyApp) -> None:
    """Install the paper's tools and executors into a Galaxy app.

    The wrappers' requirement ``version`` tags carry the per-tool GPU
    preferences the multi-GPU cases of §VI-C use (Racon wants device 0,
    Bonito device 1).
    """
    install_racon(app)
    install_bonito(app)
    install_seqstats(app)
