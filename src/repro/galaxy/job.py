"""The Galaxy job model: lifecycle, metrics, and the command line.

States follow Galaxy's job table: a job is created NEW, becomes QUEUED
when a runner accepts it, RUNNING when the tool process starts, and ends
OK or ERROR.  Terminal states are absorbing; illegal transitions raise
:class:`~repro.galaxy.errors.JobStateError` — that invariant is property-
tested.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any

from repro.galaxy.errors import JobStateError
from repro.galaxy.tool_xml import ToolDefinition


class JobState(str, enum.Enum):
    """Galaxy job states (the subset the execution core traverses)."""

    NEW = "new"
    QUEUED = "queued"
    RUNNING = "running"
    OK = "ok"
    ERROR = "error"
    DELETED = "deleted"


#: Legal state transitions.  DELETED is reachable from any non-terminal
#: state (user cancellation).
_TRANSITIONS: dict[JobState, set[JobState]] = {
    JobState.NEW: {JobState.QUEUED, JobState.DELETED},
    JobState.QUEUED: {JobState.RUNNING, JobState.ERROR, JobState.DELETED},
    JobState.RUNNING: {JobState.OK, JobState.ERROR, JobState.DELETED},
    JobState.OK: set(),
    JobState.ERROR: set(),
    JobState.DELETED: set(),
}

TERMINAL_STATES = frozenset({JobState.OK, JobState.ERROR, JobState.DELETED})


@dataclass
class JobMetrics:
    """Per-job measurements collected by the runners.

    All times are virtual-clock seconds.  ``breakdown`` carries tool-
    specific phases (e.g. Racon's alloc/kernel/api split) used by the
    experiment harnesses.
    """

    submit_time: float = 0.0
    start_time: float | None = None
    end_time: float | None = None
    destination_id: str | None = None
    gpu_ids: list[str] = field(default_factory=list)
    container: str | None = None
    breakdown: dict[str, float] = field(default_factory=dict)
    #: Structured measurements from job metrics plugins, keyed by plugin.
    plugin_metrics: dict[str, dict] = field(default_factory=dict)
    #: Job id of the immediate resubmission, when this job failed and the
    #: destination named a resubmit arm.
    resubmitted_as: int | None = None
    #: The full resubmission chain this job belongs to, root first — every
    #: job in the chain carries the same list, so any hop reveals the
    #: whole history.  Empty for jobs that were never resubmitted.
    resubmit_chain: list[int] = field(default_factory=list)
    #: Absolute virtual-clock deadline stamped by the overload layer;
    #: a job still queued past it is shed, never run.
    deadline: float | None = None
    #: Typed :class:`~repro.resilience.shedding.ShedReason` value, set
    #: iff the overload layer refused this job (state DELETED).
    shed_reason: str | None = None

    @property
    def runtime_seconds(self) -> float | None:
        """Wall (virtual) runtime, once the job finished."""
        if self.start_time is None or self.end_time is None:
            return None
        return self.end_time - self.start_time

    @property
    def queue_seconds(self) -> float | None:
        """Time between submission and process start."""
        if self.start_time is None:
            return None
        return self.start_time - self.submit_time


_job_ids = itertools.count(1)


@dataclass
class GalaxyJob:
    """One submitted tool invocation."""

    tool: ToolDefinition
    params: dict[str, Any] = field(default_factory=dict)
    job_id: int = field(default_factory=lambda: next(_job_ids))
    state: JobState = JobState.NEW
    command_line: str | None = None
    environment: dict[str, str] = field(default_factory=dict)
    stdout: str = ""
    stderr: str = ""
    exit_code: int | None = None
    metrics: JobMetrics = field(default_factory=JobMetrics)
    result: Any = None
    state_history: list[tuple[JobState, float]] = field(default_factory=list)

    def transition(self, new_state: JobState, now: float = 0.0) -> None:
        """Move to ``new_state``; illegal transitions raise.

        The (state, time) pair is appended to :attr:`state_history`, so
        tests can assert monotone lifecycles.
        """
        if new_state not in _TRANSITIONS[self.state]:
            raise JobStateError(
                f"job {self.job_id}: illegal transition "
                f"{self.state.value} -> {new_state.value}"
            )
        self.state = new_state
        self.state_history.append((new_state, now))

    @property
    def is_terminal(self) -> bool:
        """True once the job reached OK, ERROR, or DELETED."""
        return self.state in TERMINAL_STATES

    def fail(self, message: str, now: float = 0.0, exit_code: int = 1) -> None:
        """Record a failure and move to ERROR (from QUEUED or RUNNING)."""
        self.stderr += message if not self.stderr else "\n" + message
        self.exit_code = exit_code
        self.transition(JobState.ERROR, now)
