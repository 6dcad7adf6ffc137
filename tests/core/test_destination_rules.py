"""Dynamic destination rules (paper §IV-A, Challenge II)."""


from repro.cluster.node import ComputeNode
from repro.core.orchestrator import build_deployment
from repro.core.destination_rules import (
    LOCAL_CPU_DESTINATION,
    LOCAL_GPU_DESTINATION,
    gpu_destination_rule,
)
from repro.galaxy.params import GPU_ENABLED_ENV_VAR
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
