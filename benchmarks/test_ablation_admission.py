"""Ablation A4 — GPU memory admission control (GYAN extension).

Without admission control, a job whose device-memory footprint exceeds
every GPU's free framebuffer is scheduled anyway and dies mid-run with a
CUDA OOM; with the controller, the mapper degrades it to CPU execution
up front (Challenge II's user-agnostic fallback, extended to memory).
This ablation measures both paths on a burst of mixed-footprint jobs.
"""


from repro.core.orchestrator import build_deployment
from repro.core.admission import GpuMemoryAdmissionController
from repro.galaxy.app import ToolExecutionResult
from repro.galaxy.job import JobState
from repro.gpusim.kernels import KernelTimingModel
from repro.tools.executors import register_paper_tools

MIB = 1024**2
#: Mixed burst: footprints in MiB; two exceed the 11441 MiB device.
BURST = [2_000, 14_000, 4_000, 20_000, 8_000]


def allocating_executor(argv, ctx):
    """A racon_gpu stand-in that actually allocates its footprint."""
    footprint = int(ctx.job.params["gpu_memory_mib"]) * MIB
    if ctx.gpu_enabled and ctx.gpu_devices:
        timing = KernelTimingModel(ctx.node.gpu_host, ctx.gpu_devices[0], pid=ctx.pid)
        allocation = timing.malloc(footprint)  # raises DeviceOutOfMemoryError
        ctx.clock.advance(1.0)
        timing.free(allocation)
    else:
        ctx.clock.advance(2.0)  # CPU fallback is slower but succeeds
    return ToolExecutionResult(stdout="done")


def run_burst(with_admission: bool):
    deployment = build_deployment()
    register_paper_tools(deployment.app)
    deployment.app.register_executor("racon_gpu", allocating_executor)
    deployment.app.register_executor("racon", allocating_executor)
    if with_admission:
        deployment.mapper.admission = GpuMemoryAdmissionController()
    outcomes = []
    for footprint in BURST:
        job = deployment.run_tool(
            "racon", {"workload": "unit", "gpu_memory_mib": footprint}
        )
        outcomes.append(
            {
                "footprint": footprint,
                "state": job.state.value,
                "gpu": job.environment.get("GALAXY_GPU_ENABLED") == "true",
            }
        )
    return outcomes


def run_both():
    return {"without": run_burst(False), "with": run_burst(True)}


def test_ablation_admission(benchmark, report):
    results = benchmark.pedantic(run_both, rounds=1, iterations=1)
    for label, outcomes in results.items():
        report.add(f"{label} admission control:")
        report.table(
            ["footprint (MiB)", "placement", "state"],
            [
                [o["footprint"], "GPU" if o["gpu"] else "CPU", o["state"]]
                for o in outcomes
            ],
        )
        report.add()

    without = results["without"]
    with_ac = results["with"]

    # Without admission: oversized jobs were sent to the GPU and died.
    oversized = [o for o in without if o["footprint"] > 11_441]
    assert all(o["gpu"] and o["state"] == JobState.ERROR.value for o in oversized)
    # With admission: the same jobs degraded to CPU and succeeded.
    oversized_ac = [o for o in with_ac if o["footprint"] > 11_441]
    assert all(not o["gpu"] and o["state"] == JobState.OK.value for o in oversized_ac)
    # Fitting jobs are unaffected by the controller.
    for a, b in zip(without, with_ac, strict=True):
        if a["footprint"] <= 11_441:
            assert a["gpu"] and b["gpu"]
            assert a["state"] == b["state"] == JobState.OK.value

    failed_without = sum(1 for o in without if o["state"] == "error")
    report.add(f"jobs lost to CUDA OOM: without={failed_without}, with=0")
    assert failed_without == 2

    benchmark.extra_info["oom_without"] = failed_without
    report.finish()
