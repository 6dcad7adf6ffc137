"""File-driven Galaxy jobs: the Racon executor reads a real working dir."""

import pytest

from repro.galaxy.job import JobState
from repro.tools.racon.alignment import identity
from repro.workloads.files import load, materialize
from repro.workloads.generator import simulate_read_set


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    read_set = simulate_read_set(
        genome_length=1500, coverage=10, mean_read_length=300, seed=55
    )
    directory = tmp_path_factory.mktemp("racon_job")
    return materialize(read_set, directory)


class TestFileModeExecution:
    def test_gpu_job_polishes_from_files(self, deployment, dataset_dir):
        job = deployment.run_tool(
            "racon",
            {
                "workload": "files",
                "dataset_dir": dataset_dir.directory,
                "window_length": 200,
            },
        )
        assert job.state is JobState.OK
        loaded = load(dataset_dir)
        truth = loaded.truth.sequence
        assert identity(job.result.polished.sequence, truth) > identity(
            loaded.backbone.sequence, truth
        )

    def test_cpu_and_gpu_file_runs_identical(self, deployment, dataset_dir):
        from repro.cluster.node import ComputeNode
        from repro.core.orchestrator import build_deployment
        from repro.tools.executors import register_paper_tools

        params = {
            "workload": "files",
            "dataset_dir": dataset_dir.directory,
            "window_length": 200,
        }
        gpu_job = deployment.run_tool("racon", dict(params))
        cpu_dep = build_deployment(node=ComputeNode.cpu_only())
        register_paper_tools(cpu_dep.app)
        cpu_job = cpu_dep.run_tool("racon", dict(params))
        assert gpu_job.result.polished.sequence == cpu_job.result.polished.sequence

    def test_missing_directory_fails_job(self, deployment):
        job = deployment.run_tool(
            "racon", {"workload": "files", "dataset_dir": "/nonexistent/place"}
        )
        assert job.state is JobState.ERROR
