"""Tool executors: workload modes, fallback, device accounting."""

import pytest

from repro.gpusim.profiler import CudaProfiler
from repro.galaxy.job import JobState


class TestRaconUnitMode:
    def test_gpu_unit_time_matches_model(self, deployment):
        job = deployment.run_tool(
            "racon", {"threads": 4, "batches": 1, "workload": "unit"}
        )
        assert job.metrics.runtime_seconds == pytest.approx(1.72, abs=0.01)

    def test_cpu_unit_time_when_no_gpu(self):
        from repro.cluster.node import ComputeNode
        from repro.core.orchestrator import build_deployment
        from repro.tools.executors import register_paper_tools

        dep = build_deployment(node=ComputeNode.cpu_only())
        register_paper_tools(dep.app)
        job = dep.run_tool("racon", {"threads": 4, "workload": "unit"})
        assert job.metrics.runtime_seconds == pytest.approx(3.22, abs=0.01)

    def test_banding_parameter_threads_through(self, deployment):
        job = deployment.run_tool(
            "racon",
            {"threads": 4, "batches": 16, "banding": "true", "workload": "unit"},
        )
        assert "-b" in job.command_line
        assert job.metrics.runtime_seconds == pytest.approx(1.67, abs=0.01)


class TestRaconDatasetMode:
    def test_gpu_end_to_end_near_200s(self, deployment):
        deployment.app.profiler = CudaProfiler()
        job = deployment.run_tool(
            "racon", {"threads": 4, "workload": "dataset", "dataset": "Alzheimers_NFL"}
        )
        assert job.metrics.runtime_seconds == pytest.approx(200.0, rel=0.02)
        assert job.metrics.breakdown["gpu_alloc"] == pytest.approx(2.0, abs=0.1)
        assert job.metrics.breakdown["gpu_kernels"] == pytest.approx(13.0, rel=0.1)
        assert job.metrics.breakdown["cuda_api_overhead"] == pytest.approx(40.0, rel=0.1)

    def test_device_memory_restored_after_run(self, deployment):
        deployment.run_tool("racon", {"workload": "dataset"})
        assert deployment.gpu_host.device(0).memory.used == 0

    def test_unknown_dataset_fails_job(self, deployment):
        job = deployment.run_tool(
            "racon", {"workload": "dataset", "dataset": "NotADataset"}
        )
        assert job.state is JobState.ERROR

    def test_stall_analysis_matches_paper(self, deployment):
        deployment.app.profiler = CudaProfiler()
        deployment.run_tool("racon", {"workload": "dataset"})
        stalls = deployment.app.profiler.stall_analysis()
        assert stalls.memory_dependency_pct == pytest.approx(70.0, abs=5.0)
        assert stalls.execution_dependency_pct == pytest.approx(20.0, abs=5.0)


class TestRaconPayloadMode:
    def test_real_polish_through_galaxy(self, deployment, small_read_set, small_polish_inputs):
        backbone, reads, mappings = small_polish_inputs
        job = deployment.run_tool(
            "racon",
            {
                "workload": "payload",
                "window_length": 200,
                "payload": {
                    "backbone": backbone,
                    "reads": reads,
                    "mappings": mappings,
                },
            },
        )
        assert job.state is JobState.OK
        from repro.tools.racon.alignment import identity

        truth = small_read_set.genome.sequence
        assert identity(job.result.polished.sequence, truth) > identity(
            backbone.sequence, truth
        )

    def test_payload_gpu_equals_cpu_only_deployment(
        self, deployment, small_polish_inputs
    ):
        from repro.cluster.node import ComputeNode
        from repro.core.orchestrator import build_deployment
        from repro.tools.executors import register_paper_tools

        backbone, reads, mappings = small_polish_inputs
        params = {
            "workload": "payload",
            "window_length": 200,
            "payload": {"backbone": backbone, "reads": reads, "mappings": mappings},
        }
        gpu_job = deployment.run_tool("racon", dict(params))
        cpu_dep = build_deployment(node=ComputeNode.cpu_only())
        register_paper_tools(cpu_dep.app)
        cpu_job = cpu_dep.run_tool("racon", dict(params))
        assert (
            gpu_job.result.polished.sequence == cpu_job.result.polished.sequence
        )


class TestBonitoExecutor:
    def test_gpu_dataset_mode(self, deployment):
        deployment.app.profiler = CudaProfiler()
        job = deployment.run_tool(
            "bonito", {"workload": "dataset", "dataset": "Acinetobacter_pittii"}
        )
        assert job.state is JobState.OK
        hours = job.metrics.runtime_seconds / 3600.0
        assert 3.5 <= hours <= 4.5
        assert "cuda" in job.command_line

    def test_cpu_dataset_mode_exceeds_210h(self):
        from repro.cluster.node import ComputeNode
        from repro.core.orchestrator import build_deployment
        from repro.tools.executors import register_paper_tools

        dep = build_deployment(node=ComputeNode.cpu_only())
        register_paper_tools(dep.app)
        job = dep.run_tool(
            "bonito", {"workload": "dataset", "dataset": "Acinetobacter_pittii"}
        )
        assert job.metrics.runtime_seconds / 3600.0 > 210.0
        assert "cpu" in job.command_line

    def test_gemm_hotspot_dominates(self, deployment):
        deployment.app.profiler = CudaProfiler()
        deployment.run_tool("bonito", {"workload": "dataset"})
        hotspots = deployment.app.profiler.hotspots()
        assert hotspots[0].name == "sgemm_128x64_nn"

    def test_unit_slice_launches_one_gemm(self, deployment):
        deployment.app.profiler = CudaProfiler()
        deployment.run_tool("bonito", {"workload": "unit"})
        assert deployment.app.profiler.call_count("sgemm_128x64_nn") == 1

    def test_payload_mode_real_basecalling(self, deployment, pore_model, squiggle_reads):
        job = deployment.run_tool(
            "bonito",
            {
                "workload": "payload",
                "payload": {"pore": pore_model, "reads": list(squiggle_reads)},
            },
        )
        assert job.state is JobState.OK
        assert job.result.mean_identity > 0.75
        assert len(job.result.records) == len(squiggle_reads)


@pytest.fixture
def built_kernels(monkeypatch):
    """Every ``KernelLaunch`` constructed while the test runs."""
    from repro.gpusim.kernels import KernelLaunch

    built = []
    post_init = KernelLaunch.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(KernelLaunch, "__post_init__", counting)
    return built


@pytest.mark.perf_guard
class TestStreamedKernelsDesignedOnce:
    """A streamed job designs each kernel once and launches that object
    for every chunk: counted, not timed.  Rebuilding them per chunk
    constructs 272 launches for a Racon dataset job and 64 for Bonito's
    (a probe and the kernel per launch)."""

    def test_racon_dataset(self, deployment, built_kernels):
        deployment.app.profiler = CudaProfiler()
        deployment.run_tool("racon", {"workload": "dataset"})
        profiler = deployment.app.profiler
        assert len(built_kernels) <= 4
        assert profiler.call_count("generatePOAKernel") == 68
        assert profiler.call_count("generateConsensusKernel") == 68

    def test_bonito_dataset(self, deployment, built_kernels):
        deployment.app.profiler = CudaProfiler()
        deployment.run_tool("bonito", {"workload": "dataset"})
        assert len(built_kernels) <= 2
        assert deployment.app.profiler.call_count("sgemm_128x64_nn") == 32


@pytest.mark.perf_guard
def test_racon_dataset_prices_each_kernel_design_once(deployment, monkeypatch):
    """The 68 chunk cycles replay two priced kernels: the roofline runs
    once per design, not once per launch (136 calls)."""
    from repro.gpusim.kernels import KernelTimingModel

    priced = []
    kernel_times = KernelTimingModel.kernel_times

    def counting(self, kernel):
        priced.append(kernel.name)
        return kernel_times(self, kernel)

    monkeypatch.setattr(KernelTimingModel, "kernel_times", counting)
    deployment.app.profiler = CudaProfiler()
    deployment.run_tool("racon", {"workload": "dataset"})
    assert sorted(priced) == ["generateConsensusKernel", "generatePOAKernel"]
    assert deployment.app.profiler.call_count("generatePOAKernel") == 68
