"""Galaxy workflows: chained multi-tool jobs.

Paper §II-A: "When a user wants to execute a tool, it is submitted as a
'Galaxy Job'.  A single job can be a single tool instance or a workflow
consisting of a sequence of multiple tools."  This module provides the
workflow layer: a :class:`WorkflowDefinition` is an ordered list of
steps; each step names a tool, fixed parameters, and *input bindings*
that pull values out of earlier steps' results; invoking it runs every
step through the app's normal dispatch path (so each step is
independently GPU-mapped by GYAN) and records the per-step jobs.

A binding is a callable ``(invocation) -> value`` (or a fixed value) —
enough to express the paper-motivated pipeline
*basecall → map → polish*.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.galaxy.app import GalaxyApp
from repro.galaxy.errors import GalaxyError
from repro.galaxy.job import GalaxyJob, JobState


class WorkflowError(GalaxyError):
    """Raised for malformed workflows or failed step wiring."""


@dataclass
class WorkflowStep:
    """One tool invocation inside a workflow."""

    tool_id: str
    params: dict[str, Any] = field(default_factory=dict)
    #: param name -> callable(invocation) -> value, or a fixed value
    bindings: dict[str, Any] = field(default_factory=dict)
    label: str = ""

    def resolved_params(self, invocation: "WorkflowInvocation") -> dict[str, Any]:
        """Fixed params merged with resolved bindings."""
        params = dict(self.params)
        for name, binding in self.bindings.items():
            if callable(binding):
                params[name] = binding(invocation)
            else:
                params[name] = binding
        return params


@dataclass
class WorkflowDefinition:
    """An ordered sequence of steps."""

    name: str
    steps: list[WorkflowStep] = field(default_factory=list)

    def add_step(
        self,
        tool_id: str,
        params: Mapping[str, Any] | None = None,
        bindings: Mapping[str, Any] | None = None,
        label: str = "",
    ) -> WorkflowStep:
        """Append a step and return it (builder style)."""
        step = WorkflowStep(
            tool_id=tool_id,
            params=dict(params or {}),
            bindings=dict(bindings or {}),
            label=label or f"step_{len(self.steps)}",
        )
        if any(s.label == step.label for s in self.steps):
            raise WorkflowError(f"duplicate step label {step.label!r}")
        self.steps.append(step)
        return step

    def validate(self, app: GalaxyApp) -> None:
        """Check the workflow has steps and every step's tool is installed."""
        if not self.steps:
            raise WorkflowError(f"workflow {self.name!r} has no steps")
        for step in self.steps:
            app.tool(step.tool_id)  # raises ToolNotFoundError


_invocation_ids = itertools.count(1)


@dataclass
class WorkflowInvocation:
    """A running/finished instance of a workflow."""

    definition: WorkflowDefinition
    invocation_id: int = field(default_factory=lambda: next(_invocation_ids))
    jobs: list[GalaxyJob] = field(default_factory=list)
    state: JobState = JobState.NEW

    def job_for(self, step: int | str) -> GalaxyJob | None:
        """The job of a step, by index or label (None if not run yet)."""
        if isinstance(step, int):
            return self.jobs[step] if 0 <= step < len(self.jobs) else None
        for job, definition_step in zip(self.jobs, self.definition.steps, strict=False):
            if definition_step.label == step:
                return job
        return None

    @property
    def total_runtime_seconds(self) -> float:
        """Summed per-step runtimes (virtual)."""
        return sum(j.metrics.runtime_seconds or 0.0 for j in self.jobs)


class WorkflowRunner:
    """Executes workflow definitions against a Galaxy app.

    Each step goes through :meth:`GalaxyApp.run_job`, i.e. the full
    dynamic destination mapping — a workflow may therefore interleave
    GPU-mapped and CPU-mapped steps, which is exactly the heterogeneous
    pipeline GYAN's Challenge II anticipates.
    """

    def __init__(self, app: GalaxyApp) -> None:
        self.app = app
        self.invocations: list[WorkflowInvocation] = []

    def invoke(self, definition: WorkflowDefinition) -> WorkflowInvocation:
        """Run all steps in order; stops at the first failing step."""
        definition.validate(self.app)
        invocation = WorkflowInvocation(definition=definition)
        self.invocations.append(invocation)
        invocation.state = JobState.RUNNING
        for step in definition.steps:
            params = step.resolved_params(invocation)
            job = self.app.submit(step.tool_id, params)
            invocation.jobs.append(job)
            self.app.run_job(job)
            if job.state is not JobState.OK:
                invocation.state = JobState.ERROR
                return invocation
        invocation.state = JobState.OK
        return invocation
