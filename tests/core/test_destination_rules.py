"""Dynamic destination rules (paper §IV-A, Challenge II).

The rules ask the deployment's mapper whether a GPU is free, so they are
driven here as the job configuration registered them.
"""

import pytest

from repro.cluster.node import ComputeNode
from repro.core.destination_rules import GYAN_RULES
from repro.core.orchestrator import build_deployment
from repro.core.retry import DEFAULT_NVML_RETRY
from repro.galaxy.params import GPU_ENABLED_ENV_VAR
from repro.gpusim.errors import NVMLError
from repro.gpusim.nvml import NvmlLibrary
from repro.tools.executors import register_paper_tools

LOCAL_GPU_DESTINATION, LOCAL_CPU_DESTINATION = GYAN_RULES["gpu_destination"]


def gpu_destination_rule(job, app):
    """The ``gpu_destination`` rule the deployment of ``app`` registered."""
    return app.job_config.rules.get("gpu_destination")(job, app)


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
        for name in GYAN_RULES:
            assert callable(deployment.job_config.rules.get(name))

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
        assert deployment.mapper.available_gpu_count() == 1
        tracker.record_device_lost("1", deployment.clock.now)
        assert deployment.mapper.available_gpu_count() == 0
        job = deployment.app.submit("racon", {"workload": "unit"})
        assert gpu_destination_rule(job, deployment.app) == LOCAL_CPU_DESTINATION


@pytest.mark.parametrize("lost", [0, 1])
def test_a_lost_die_leaves_the_other_die_available(lost):
    """Quarantine is matched by minor number, not enumeration index:
    with one die off the bus the driver enumerates only the other, and
    GPU jobs run there."""
    deployment = build_deployment(resilient=True)
    register_paper_tools(deployment.app)
    now = deployment.clock.now
    deployment.gpu_host.device(lost).mark_failed(now=now, xid=79)
    deployment.health_tracker.record_device_lost(str(lost), now)
    assert deployment.mapper.available_gpu_count() == 1
    job = deployment.run_tool("racon", {"workload": "unit"})
    assert job.metrics.destination_id == LOCAL_GPU_DESTINATION
    assert job.metrics.gpu_ids == [str(1 - lost)]


def test_one_count_probe_per_gpu_job(monkeypatch):
    """The rule and the launch-time mapping ask the same cached probe:
    one ``nvmlDeviceGetCount`` per job on a fault-free deployment."""
    calls = []
    count = NvmlLibrary.nvmlDeviceGetCount

    def counted(self):
        calls.append(self)
        return count(self)

    monkeypatch.setattr(NvmlLibrary, "nvmlDeviceGetCount", counted)
    deployment = build_deployment()
    register_paper_tools(deployment.app)
    jobs = [deployment.run_tool("racon", {"workload": "unit"}) for _ in range(5)]
    assert [job.metrics.destination_id for job in jobs] == [
        LOCAL_GPU_DESTINATION
    ] * len(jobs)
    assert len(calls) == len(jobs)


def test_cpu_arm_job_takes_a_die_that_recovers_before_launch():
    """The open case of ROADMAP item 12, recorded as it behaves today.

    DESIGN.md §1(b) has the rule map the job from live GPU availability
    and §1(c) has the runner launch it with ``CUDA_VISIBLE_DEVICES``.
    The launch asks the mapper again, and the stock job_conf's
    ``local_cpu`` pins no ``gpu_enabled_override``.  So a GPU tool the
    rule sent to the CPU arm because every die was lost still gets die
    0 when it recovers between mapping and launch: it runs the GPU
    binary on ``local_cpu``.  Item 12 decides whether the rule's arm or
    the launch-time probe wins; this test changes with that decision.
    """
    deployment = build_deployment()
    register_paper_tools(deployment.app)
    for device in deployment.gpu_host.devices:
        device.mark_failed()
    job = deployment.app.submit("racon", {"workload": "unit"})
    destination = deployment.app.map_destination(job)
    assert destination.destination_id == LOCAL_CPU_DESTINATION

    deployment.gpu_host.devices[0].recover()
    runner = deployment.app.runner_for(destination)
    launched = runner.launch(job, destination)

    assert launched.context.environment[GPU_ENABLED_ENV_VAR] == "true"
    assert launched.context.environment["CUDA_VISIBLE_DEVICES"] == "0"
    done = runner.finish(launched)
    assert done.state.value == "ok"
    assert done.metrics.destination_id == LOCAL_CPU_DESTINATION
    assert done.metrics.gpu_ids == ["0"]
    assert done.command_line.startswith("racon_gpu ")
