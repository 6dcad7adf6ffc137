"""A FIFO cluster scheduler with CPU-slot accounting.

Galaxy can hand jobs to an external scheduler (Slurm, HTCondor) or run
them locally; GYAN's evaluation uses the local path, but the destination
abstraction is scheduler-shaped.  This minimal scheduler gives the Galaxy
runners a realistic admission layer: jobs queue FIFO per node, start when
their CPU-slot request fits, and release slots on completion.  Time is
virtual — callers drive progress through :meth:`ClusterScheduler.pump`.

The queue is unbounded and nothing is shed: overload protection (bounded
queues, deadlines, runtime budgets) lives in
:class:`~repro.resilience.overload.OverloadController` on the object
path and in :class:`~repro.cluster.fleet.FleetSimulator` on the columnar
one.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable

from repro.cluster.node import ComputeNode


class JobState(str, enum.Enum):
    """Scheduler-side job states (Galaxy's job model has its own)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


@dataclass(frozen=True)
class SlotRequest:
    """Resources a job asks the scheduler for."""

    cpu_slots: int = 1

    def __post_init__(self) -> None:
        if self.cpu_slots <= 0:
            raise ValueError("cpu_slots must be positive")


@dataclass
class ScheduledJob:
    """A unit of work tracked by the scheduler.

    ``body`` runs synchronously when the job starts (the simulator has no
    real concurrency; tool duration is virtual-clock time advanced inside
    the body).  Its return value is stored in ``result``.
    """

    job_id: int
    name: str
    request: SlotRequest
    body: Callable[[], object]
    state: JobState = JobState.QUEUED
    result: object = None
    error: BaseException | None = None
    submit_time: float = 0.0
    start_time: float | None = None
    end_time: float | None = None
    _cpu_token: int | None = field(default=None, repr=False)


class ClusterScheduler:
    """FIFO admission onto one node.

    Jobs are admitted strictly in submission order: if the head of the
    queue does not fit, later jobs wait even if they would fit (no
    backfilling) — matching Galaxy's default local-runner worker queue.
    """

    def __init__(self, node: ComputeNode) -> None:
        self.node = node
        self._queue: list[ScheduledJob] = []
        self._jobs: dict[int, ScheduledJob] = {}
        self._ids = itertools.count(1)

    # ------------------------------------------------------------------ #
    def submit(
        self,
        name: str,
        body: Callable[[], object],
        request: SlotRequest | None = None,
    ) -> ScheduledJob:
        """Queue a job; it will run on a later :meth:`pump`."""
        job = ScheduledJob(
            job_id=next(self._ids),
            name=name,
            request=request or SlotRequest(),
            body=body,
            submit_time=self.node.clock.now,
        )
        self._queue.append(job)
        self._jobs[job.job_id] = job
        return job

    def job(self, job_id: int) -> ScheduledJob:
        """Look up a job by id."""
        return self._jobs[job_id]

    def queued(self) -> list[ScheduledJob]:
        """Jobs still waiting for admission, FIFO order."""
        return [j for j in self._queue if j.state is JobState.QUEUED]

    # ------------------------------------------------------------------ #
    def pump(self, max_jobs: int | None = None) -> list[ScheduledJob]:
        """Admit and run queued jobs head-first; returns jobs completed.

        Each admitted job runs to completion synchronously (its body
        advances the virtual clock).  Admission stops at the first job
        whose CPU request does not fit, or after ``max_jobs``.
        """
        completed: list[ScheduledJob] = []
        while self._queue:
            if max_jobs is not None and len(completed) >= max_jobs:
                break
            head = self._queue[0]
            if head.request.cpu_slots > self.node.cpu_slots_free:
                break
            self._queue.pop(0)
            self._run(head)
            completed.append(head)
        return completed

    def _run(self, job: ScheduledJob) -> None:
        job._cpu_token = self.node.reserve_cpus(job.request.cpu_slots)
        job.state = JobState.RUNNING
        job.start_time = self.node.clock.now
        try:
            job.result = job.body()
            job.state = JobState.DONE
        except Exception as exc:  # body failures become FAILED jobs
            job.error = exc
            job.state = JobState.FAILED
        finally:
            job.end_time = self.node.clock.now
            # Exactly-once slot release: the token is cleared the moment
            # it is returned, so neither terminal path (DONE, FAILED) can
            # double-free — audit_slots() is the ground truth check.
            if job._cpu_token is not None:
                self.node.release_cpus(job._cpu_token)
                job._cpu_token = None

    # ------------------------------------------------------------------ #
    def audit_slots(self) -> int:
        """Ground-truth CPU-slot audit; returns free slots or raises.

        Recomputes what ``cpu_slots_free`` *should* be from the job
        table (total minus the requests of RUNNING jobs) and verifies it
        against the node's semaphore, plus the invariant that only
        RUNNING jobs hold a reservation token.  Catches
        double-release/leak bugs on the FAILED path.
        """
        running = [j for j in self._jobs.values() if j.state is JobState.RUNNING]
        expected_free = self.node.resources.cpu_slots - sum(
            j.request.cpu_slots for j in running
        )
        actual_free = self.node.cpu_slots_free
        if actual_free != expected_free:
            raise RuntimeError(
                f"CPU slot accounting drifted: node reports {actual_free} "
                f"free, job table implies {expected_free}"
            )
        holders = [
            j.job_id
            for j in sorted(self._jobs.values(), key=lambda j: j.job_id)
            if j._cpu_token is not None and j.state is not JobState.RUNNING
        ]
        if holders:
            raise RuntimeError(
                f"non-RUNNING jobs hold CPU reservations: {holders}"
            )
        return actual_free

    def stats(self) -> dict[str, int]:
        """Counts per state — used by the dispatch-overhead benchmark."""
        counts = {state.value: 0 for state in JobState}
        for job in self._jobs.values():
            counts[job.state.value] += 1
        return counts
