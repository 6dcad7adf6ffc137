"""Galaxy workflows: definition, binding resolution, chained execution."""

import pytest

from repro.galaxy.app import ToolExecutionResult
from repro.galaxy.job import JobState
from repro.galaxy.workflow import (
    WorkflowDefinition,
    WorkflowError,
    WorkflowRunner,
)


@pytest.fixture
def workflow_deployment(deployment):
    """Deployment with two toy chained tools plus the paper tools."""
    from repro.galaxy.tool_xml import parse_tool_xml

    deployment.app.install_tool(
        parse_tool_xml('<tool id="producer"><command>produce $value</command></tool>')
    )
    deployment.app.install_tool(
        parse_tool_xml('<tool id="consumer"><command>consume $amount</command></tool>')
    )

    def produce(argv, ctx):
        ctx.clock.advance(1.0)
        return ToolExecutionResult(result=int(argv[1]) * 10)

    def consume(argv, ctx):
        ctx.clock.advance(1.0)
        return ToolExecutionResult(result=f"consumed {argv[1]}")

    deployment.app.register_executor("produce", produce)
    deployment.app.register_executor("consume", consume)
    return deployment


class TestDefinition:
    def test_builder_and_labels(self):
        wf = WorkflowDefinition(name="wf")
        wf.add_step("a")
        step = wf.add_step("b", label="second")
        assert [s.label for s in wf.steps] == ["step_0", "second"]
        assert step.tool_id == "b"

    def test_duplicate_labels_rejected(self):
        wf = WorkflowDefinition(name="wf")
        wf.add_step("a", label="x")
        with pytest.raises(WorkflowError):
            wf.add_step("b", label="x")

    def test_validation_empty(self, workflow_deployment):
        with pytest.raises(WorkflowError):
            WorkflowDefinition(name="empty").validate(workflow_deployment.app)

    def test_validation_unknown_tool(self, workflow_deployment):
        wf = WorkflowDefinition(name="wf")
        wf.add_step("ghost_tool")
        from repro.galaxy.errors import ToolNotFoundError

        with pytest.raises(ToolNotFoundError):
            wf.validate(workflow_deployment.app)


class TestExecution:
    def test_two_step_chain_with_binding(self, workflow_deployment):
        wf = WorkflowDefinition(name="chain")
        wf.add_step("producer", {"value": 7}, label="make")
        wf.add_step("consumer", bindings={"amount": lambda inv: inv.job_for("make").result})
        invocation = WorkflowRunner(workflow_deployment.app).invoke(wf)
        assert invocation.state is JobState.OK
        assert invocation.jobs[0].result == 70
        assert invocation.jobs[1].command_line == "consume 70"
        assert invocation.jobs[1].result == "consumed 70"

    def test_callable_binding(self, workflow_deployment):
        wf = WorkflowDefinition(name="chain")
        wf.add_step("producer", {"value": 2})
        wf.add_step(
            "consumer",
            bindings={"amount": lambda inv: inv.jobs[0].result * 2},
        )
        invocation = WorkflowRunner(workflow_deployment.app).invoke(wf)
        assert invocation.jobs[1].command_line == "consume 40"

    def test_failing_step_stops_workflow(self, workflow_deployment):
        def boom(argv, ctx):
            raise RuntimeError("crash")

        workflow_deployment.app.register_executor("produce", boom)
        wf = WorkflowDefinition(name="chain")
        wf.add_step("producer", {"value": 1})
        wf.add_step("consumer", bindings={"amount": lambda inv: inv.jobs[0].result})
        invocation = WorkflowRunner(workflow_deployment.app).invoke(wf)
        assert invocation.state is JobState.ERROR
        assert len(invocation.jobs) == 1  # second step never submitted

    def test_steps_individually_gpu_mapped(self, workflow_deployment):
        """A workflow mixes GPU and CPU tools; GYAN maps each step."""
        wf = WorkflowDefinition(name="mixed")
        wf.add_step("racon", {"threads": 4, "workload": "unit"})
        wf.add_step("seqstats", {"threads": 1})
        invocation = WorkflowRunner(workflow_deployment.app).invoke(wf)
        assert invocation.state is JobState.OK
        assert invocation.jobs[0].metrics.destination_id == "local_gpu"
        assert invocation.jobs[1].metrics.destination_id == "local_cpu"
        assert invocation.total_runtime_seconds > 0

    def test_job_for_lookup(self, workflow_deployment):
        wf = WorkflowDefinition(name="chain")
        wf.add_step("producer", {"value": 1}, label="make")
        invocation = WorkflowRunner(workflow_deployment.app).invoke(wf)
        assert invocation.job_for("make") is invocation.jobs[0]
        assert invocation.job_for(0) is invocation.jobs[0]
        assert invocation.job_for("ghost") is None
        assert invocation.job_for(5) is None
