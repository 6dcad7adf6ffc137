"""GYAN vs stock Galaxy: the design properties of §IV.

* minimal/no user involvement — the same wrapper works everywhere;
* user-agnostic degradation — GPU tools silently run on CPU when no GPU;
* original execution flow retained — CPU-only tools behave identically
  with and without GYAN installed.
"""

import pytest

from repro.cluster.node import ComputeNode
from repro.core.orchestrator import build_deployment
from repro.galaxy.job import JobState
from repro.galaxy.runners.local import LocalRunner
from repro.tools.executors import register_paper_tools


@pytest.fixture
def stock_deployment():
    """A deployment whose local runner has NO GYAN mapper installed."""
    deployment = build_deployment()
    register_paper_tools(deployment.app)
    stock_local = LocalRunner(deployment.app, gpu_mapper=None)
    deployment.app.register_runner("local", stock_local)
    return deployment


class TestStockGalaxy:
    def test_stock_runs_gpu_tool_on_cpu_arm(self, stock_deployment):
        """Pre-GYAN Galaxy: even with GPUs present and the tool GPU-
        capable, the CPU arm runs (the paper's motivating deficiency).

        Note: the dynamic rule sets the app-level env var; the stock
        *runner* never exports it to the job, so the wrapper's GPU arm
        cannot trigger."""
        stock_deployment.app.environment.clear()
        job = stock_deployment.app.submit("racon", {"threads": 4, "workload": "unit"})
        destination = stock_deployment.job_config.destination("local_cpu")
        stock_deployment.app.runner_for(destination).queue_job(job, destination)
        assert job.command_line.startswith("racon -t 4")
        assert job.state is JobState.OK

    def test_cpu_tools_identical_under_gyan(self, deployment, stock_deployment):
        """GYAN does not perturb CPU-only tools at all."""
        gyan_job = deployment.run_tool("seqstats", {"threads": 2})
        stock_job = stock_deployment.app.submit("seqstats", {"threads": 2})
        destination = stock_deployment.job_config.destination("local_cpu")
        stock_deployment.app.runner_for(destination).queue_job(stock_job, destination)
        assert gyan_job.command_line == stock_job.command_line
        assert gyan_job.state == stock_job.state


class TestUserAgnosticDegradation:
    def test_same_wrapper_gpu_node_vs_cpu_node(self):
        """One wrapper, two clusters: GPU node runs racon_gpu, CPU node
        runs racon — zero user involvement (GYAN feature i)."""
        gpu_dep = build_deployment()
        register_paper_tools(gpu_dep.app)
        cpu_dep = build_deployment(node=ComputeNode.cpu_only())
        register_paper_tools(cpu_dep.app)
        params = {"threads": 4, "batches": 1, "workload": "unit"}
        gpu_job = gpu_dep.run_tool("racon", dict(params))
        cpu_job = cpu_dep.run_tool("racon", dict(params))
        assert gpu_job.command_line.startswith("racon_gpu")
        assert cpu_job.command_line.startswith("racon ")
        assert gpu_job.state is JobState.OK and cpu_job.state is JobState.OK
        assert gpu_job.metrics.runtime_seconds < cpu_job.metrics.runtime_seconds

    def test_environment_variable_contract(self):
        """GALAXY_GPU_ENABLED is 'true' iff GPU destination configured."""
        gpu_dep = build_deployment()
        register_paper_tools(gpu_dep.app)
        job = gpu_dep.run_tool("racon", {"workload": "unit"})
        assert job.environment["GALAXY_GPU_ENABLED"] == "true"
        cpu_dep = build_deployment(node=ComputeNode.cpu_only())
        register_paper_tools(cpu_dep.app)
        job = cpu_dep.run_tool("racon", {"workload": "unit"})
        assert job.environment["GALAXY_GPU_ENABLED"] == "false"


class TestNoExtraOverheadClaim:
    def test_gyan_dispatch_adds_no_virtual_time(self, deployment):
        """§V: 'GYAN executes and schedules jobs to GPUs without adding
        another layer of software stack' — mapping happens at dispatch
        and costs no tool-visible time."""
        job = deployment.app.submit("racon", {"workload": "unit"})
        before = deployment.clock.now
        deployment.app.map_destination(job)
        deployment.mapper.prepare_environment(job)
        assert deployment.clock.now == before
