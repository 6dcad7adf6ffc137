"""One-call regeneration of the paper's headline results.

The benchmark suite is the authoritative reproduction harness; this
module is the lightweight operational companion — it runs every headline
experiment in-process and renders one consolidated text report (used by
``python -m repro experiment all`` and by release sanity checks).
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

from repro.core.orchestrator import build_deployment
from repro.gpusim.profiler import CudaProfiler
from repro.tools.bonito.perf_model import BonitoPerfModel
from repro.tools.executors import register_paper_tools
from repro.tools.racon.perf_model import RaconPerfModel
from repro.workloads.datasets import ACINETOBACTER_PITTII, KLEBSIELLA_KSB2


@dataclass
class HeadlineResults:
    """Every headline quantity, as regenerated (not hard-coded)."""

    racon_cpu_unit_4t: float = 0.0
    racon_gpu_best_unbanded: tuple[int, int, float] = (0, 0, 0.0)
    racon_gpu_best_banded: tuple[int, int, float] = (0, 0, 0.0)
    racon_container_best_unbanded: tuple[int, int, float] = (0, 0, 0.0)
    racon_container_best_banded: tuple[int, int, float] = (0, 0, 0.0)
    racon_cpu_e2e: float = 0.0
    racon_gpu_e2e: float = 0.0
    racon_gpu_breakdown: dict[str, float] = field(default_factory=dict)
    bonito_cpu_hours: dict[str, float] = field(default_factory=dict)
    bonito_gpu_hours: dict[str, float] = field(default_factory=dict)
    stalls: dict[str, float] = field(default_factory=dict)

    @property
    def racon_speedup(self) -> float:
        """End-to-end Racon speedup (paper: ~2x)."""
        return self.racon_cpu_e2e / self.racon_gpu_e2e if self.racon_gpu_e2e else 0.0


def collect_headline_results() -> HeadlineResults:
    """Run the models and one profiled dataset job; collect everything."""
    results = HeadlineResults()
    racon = RaconPerfModel()
    results.racon_cpu_unit_4t = racon.cpu_unit_time(4)
    results.racon_gpu_best_unbanded = racon.best_gpu_config(banded=False)
    results.racon_gpu_best_banded = racon.best_gpu_config(banded=True)
    results.racon_container_best_unbanded = racon.best_gpu_config(
        banded=False, containerized=True
    )
    results.racon_container_best_banded = racon.best_gpu_config(
        banded=True, containerized=True
    )
    cpu_timing = racon.cpu_end_to_end()
    gpu_timing = racon.gpu_end_to_end()
    results.racon_cpu_e2e = cpu_timing.total_seconds
    results.racon_gpu_e2e = gpu_timing.total_seconds
    results.racon_gpu_breakdown = dict(gpu_timing.breakdown)

    bonito = BonitoPerfModel()
    for dataset in (ACINETOBACTER_PITTII, KLEBSIELLA_KSB2):
        results.bonito_cpu_hours[dataset.name] = bonito.cpu_time(dataset).total_hours
        results.bonito_gpu_hours[dataset.name] = bonito.gpu_time(dataset).total_hours

    deployment = build_deployment()
    register_paper_tools(deployment.app)
    deployment.app.profiler = CudaProfiler()
    deployment.run_tool("racon", {"workload": "dataset"})
    results.stalls = deployment.app.profiler.stall_analysis().as_dict()
    return results


def render_report() -> str:
    """The consolidated paper-vs-measured text report."""
    results = collect_headline_results()
    out = io.StringIO()

    def line(label: str, measured: str, paper: str) -> None:
        out.write(f"{label:<44}{measured:>18}{paper:>16}\n")

    out.write("GYAN reproduction — headline results\n")
    out.write("=" * 78 + "\n")
    line("quantity", "measured", "paper")
    out.write("-" * 78 + "\n")
    t, b, s = results.racon_gpu_best_unbanded
    line("Racon GPU best (unbanded)", f"{s:.2f}s @ {t}t/{b}b", "1.72s @ 4t/1b")
    t, b, s = results.racon_gpu_best_banded
    line("Racon GPU best (banded)", f"{s:.2f}s @ {t}t/{b}b", "1.67s @ 4t/16b")
    line("Racon CPU unit (4 threads)", f"{results.racon_cpu_unit_4t:.2f}s", "3.22s")
    t, b, s = results.racon_container_best_unbanded
    line("container best (unbanded)", f"{t}t/{b}b", "2t/4b")
    t, b, s = results.racon_container_best_banded
    line("container best (banded)", f"{t}t/{b}b", "2t/8b")
    line("Racon CPU end-to-end", f"{results.racon_cpu_e2e:.0f}s", "~410s")
    line("Racon GPU end-to-end", f"{results.racon_gpu_e2e:.0f}s", "~200s")
    line("Racon speedup", f"{results.racon_speedup:.2f}x", "~2x")
    line(
        "GPU polish (alloc+kernels+tail)",
        f"{results.racon_gpu_breakdown.get('gpu_alloc', 0) + results.racon_gpu_breakdown.get('gpu_kernels', 0) + results.racon_gpu_breakdown.get('cpu_tail', 0):.1f}s",
        "15s",
    )
    line(
        "CUDA API overhead",
        f"{results.racon_gpu_breakdown.get('cuda_api_overhead', 0):.1f}s",
        "~40s",
    )
    for name in (ACINETOBACTER_PITTII.name, KLEBSIELLA_KSB2.name):
        cpu_h = results.bonito_cpu_hours[name]
        gpu_h = results.bonito_gpu_hours[name]
        line(f"Bonito {name} CPU", f"{cpu_h:.0f}h", ">210h" if "pittii" in name else "~4x")
        line(f"Bonito {name} speedup", f"{cpu_h / gpu_h:.0f}x", ">50x")
    line(
        "stalls mem/exec/other",
        "/".join(f"{results.stalls.get(k, 0):.0f}" for k in
                 ("memory_dependency", "execution_dependency", "other")),
        "~70/~20/-",
    )
    return out.getvalue()
