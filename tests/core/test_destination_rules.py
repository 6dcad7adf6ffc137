"""Dynamic destination rules (paper §IV-A, Challenge II)."""

import pytest

from repro.cluster.node import ComputeNode
from repro.core.orchestrator import build_deployment
from repro.core.destination_rules import (
    LOCAL_CPU_DESTINATION,
    LOCAL_GPU_DESTINATION,
    _available_gpu_count,
    gpu_destination_rule,
)
from repro.core.retry import DEFAULT_NVML_RETRY
from repro.galaxy.params import GPU_ENABLED_ENV_VAR
from repro.gpusim.errors import NVMLError
from repro.tools.executors import register_paper_tools


class TestGpuDestinationRule:
    def test_gpu_tool_maps_to_local_gpu(self, deployment):
        job = deployment.app.submit("racon", {"workload": "unit"})
        assert gpu_destination_rule(job, deployment.app) == LOCAL_GPU_DESTINATION
        assert deployment.app.environment[GPU_ENABLED_ENV_VAR] == "true"

    def test_cpu_tool_maps_to_local_cpu(self, deployment):
        job = deployment.app.submit("seqstats", {})
        assert gpu_destination_rule(job, deployment.app) == LOCAL_CPU_DESTINATION
        assert deployment.app.environment[GPU_ENABLED_ENV_VAR] == "false"

    def test_gpu_tool_on_cpu_node_degrades_user_agnostically(self):
        deployment = build_deployment(node=ComputeNode.cpu_only())
        register_paper_tools(deployment.app)
        job = deployment.app.submit("racon", {"workload": "unit"})
        assert gpu_destination_rule(job, deployment.app) == LOCAL_CPU_DESTINATION
        assert deployment.app.environment[GPU_ENABLED_ENV_VAR] == "false"

    def test_rules_registered_in_deployment(self, deployment):
        names = deployment.job_config.rules.names()
        assert "gpu_destination" in names
        assert "docker_destination" in names

    def test_full_dispatch_reaches_gpu_destination(self, deployment):
        job = deployment.run_tool("racon", {"workload": "unit"})
        assert job.metrics.destination_id == "local_gpu"

    def test_full_dispatch_cpu_tool(self, deployment):
        job = deployment.run_tool("seqstats", {})
        assert job.metrics.destination_id == "local_cpu"

    def test_gpu_tool_on_cpu_node_runs_cpu_arm(self):
        """End to end: same wrapper, CPU cluster -> racon (not racon_gpu)."""
        deployment = build_deployment(node=ComputeNode.cpu_only())
        register_paper_tools(deployment.app)
        job = deployment.run_tool("racon", {"threads": 4, "workload": "unit"})
        assert job.command_line.startswith("racon -t 4")
        assert job.state.value == "ok"


def _flaky_rule_run(resilient: bool, flakes: int):
    """The rule on racon after ``flakes`` transient NVML errors were queued."""
    deployment = build_deployment(resilient=resilient)
    register_paper_tools(deployment.app)
    job = deployment.app.submit("racon", {"workload": "unit"})
    deployment.gpu_host.faults.inject_nvml_error(
        NVMLError.NVML_ERROR_TIMEOUT, count=flakes
    )
    return deployment, gpu_destination_rule(job, deployment.app)


class TestRuleUnderNvmlFlakes:
    """Challenge II on a flaky driver: a resilient deployment's rule
    backs off and degrades, a stock one crashes the mapping."""

    def test_stock_rule_raises_on_one_flake(self):
        with pytest.raises(NVMLError):
            _flaky_rule_run(resilient=False, flakes=1)

    def test_resilient_rule_absorbs_flakes_within_budget(self):
        flakes = DEFAULT_NVML_RETRY.max_attempts - 1
        deployment, destination = _flaky_rule_run(resilient=True, flakes=flakes)
        assert destination == LOCAL_GPU_DESTINATION
        backoff = sum(DEFAULT_NVML_RETRY.schedule()[:flakes])
        assert deployment.clock.now == pytest.approx(backoff)

    def test_resilient_rule_degrades_when_budget_spent(self):
        _, destination = _flaky_rule_run(
            resilient=True, flakes=DEFAULT_NVML_RETRY.max_attempts
        )
        assert destination == LOCAL_CPU_DESTINATION

    def test_quarantined_devices_are_not_counted(self):
        deployment = build_deployment(resilient=True)
        register_paper_tools(deployment.app)
        tracker = deployment.health_tracker
        tracker.record_device_lost("0", deployment.clock.now)
        assert _available_gpu_count(deployment.app) == 1
        tracker.record_device_lost("1", deployment.clock.now)
        assert _available_gpu_count(deployment.app) == 0
        job = deployment.app.submit("racon", {"workload": "unit"})
        assert gpu_destination_rule(job, deployment.app) == LOCAL_CPU_DESTINATION
