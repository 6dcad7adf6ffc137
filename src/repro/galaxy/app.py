"""The Galaxy application façade: tools, executors, runners, dispatch.

:class:`GalaxyApp` ties the substrates together the way the real
framework's ``app`` object does: it owns the installed tools, the job
configuration, the compute node, and the runner instances, and it drives
the four-step flow of the paper's Fig. 2 — submit, map to a destination,
run, collect results.

Tool *executors* stand in for the actual binaries: a registered Python
callable per executable name (``racon``, ``racon_gpu``, ``bonito``)
receives the rendered argv and an execution context (node, GPU host,
clock, environment, PID) and performs the tool's work against the
simulated hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping, TypeVar

from repro.cluster.node import ComputeNode
from repro.galaxy.errors import ExecutorNotFoundError, JobConfError, ToolNotFoundError
from repro.galaxy.history import History
from repro.galaxy.job import GalaxyJob, JobState
from repro.galaxy.job_conf import Destination, JobConfig
from repro.galaxy.tool_xml import ToolDefinition
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import NULL_TRACER
from repro.resilience.shedding import RejectedBusy, ShedReason

if TYPE_CHECKING:
    from repro.resilience.overload import OverloadController

T = TypeVar("T")


@dataclass
class ToolExecutionContext:
    """Everything a tool executor may touch while "running".

    Attributes
    ----------
    node:
        The compute node (CPU slots, clock).
    job:
        The Galaxy job being executed.
    environment:
        The process environment (includes ``CUDA_VISIBLE_DEVICES`` and
        ``GALAXY_GPU_ENABLED`` when GYAN mapped the job to GPUs).
    pid:
        Host PID of the tool process (0 for CPU-only tools that never
        attach to a GPU).
    gpu_devices:
        The devices visible to the process after ``CUDA_VISIBLE_DEVICES``
        masking, in in-process ordinal order.
    profiler:
        Optional NVProf-like collector the executor should record into.
    """

    node: ComputeNode
    job: GalaxyJob
    environment: dict[str, str]
    pid: int = 0
    gpu_devices: list = field(default_factory=list)
    profiler: Any = None

    @property
    def clock(self):
        """The node's virtual clock."""
        return self.node.clock

    @property
    def gpu_enabled(self) -> bool:
        """True when GYAN enabled GPU execution for this job."""
        return self.environment.get("GALAXY_GPU_ENABLED", "false") == "true"


@dataclass
class ToolExecutionResult:
    """What a tool executor returns."""

    stdout: str = ""
    stderr: str = ""
    exit_code: int = 0
    result: Any = None
    breakdown: dict[str, float] = field(default_factory=dict)


#: Executor signature: (argv, context) -> ToolExecutionResult.
ToolExecutor = Callable[[list[str], ToolExecutionContext], ToolExecutionResult]


class GalaxyApp:
    """The mini-Galaxy application object.

    Parameters
    ----------
    node:
        Compute node jobs run on.
    job_config:
        Parsed job configuration (destinations + dynamic rules).
    """

    #: Default runtime cap on resubmission chain length (number of
    #: *hops*, i.e. resubmissions after the original attempt).  The lint
    #: rule GYAN107 catches static resubmit cycles, but a dynamic rule
    #: can still bounce a job between destinations forever — this cap is
    #: the runtime guard.
    DEFAULT_MAX_RESUBMIT_HOPS = 3

    def __init__(
        self,
        node: ComputeNode,
        job_config: JobConfig,
        max_resubmit_hops: int = DEFAULT_MAX_RESUBMIT_HOPS,
        tracer=None,
    ) -> None:
        if max_resubmit_hops < 0:
            raise ValueError("max_resubmit_hops must be non-negative")
        self.node = node
        self.job_config = job_config
        self.max_resubmit_hops = max_resubmit_hops
        #: The deployment-wide typed metrics registry; every layer
        #: (app, mapper, runners, scheduler) reports into it.
        self.metrics_registry = MetricsRegistry()
        self._c_submitted = self.metrics_registry.counter(
            "gyan_jobs_submitted_total",
            "Jobs submitted to the app, by tool",
            labels=("tool",),
        )
        self._c_resubmits = self.metrics_registry.counter(
            "gyan_resubmits_total",
            "Resubmission hops taken after device-attributed failures",
        )
        #: The job lifecycle tracer (NULL_TRACER = disabled, zero cost).
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Optional :class:`~repro.core.health.DeviceHealthTracker` fed
        #: with device-attributed job failures.  Its presence makes the
        #: deployment resilient: the GPU mapper (which the destination
        #: rules ask) retries and degrades NVML flakes, and container
        #: runners retry daemon hiccups.
        self.health_tracker: Any = None
        #: Optional :class:`~repro.resilience.overload.OverloadController`.
        #: When set, runners run an admission check before queueing
        #: (bounded destinations bounce with REJECTED_BUSY and the app
        #: degrades along resubmit arms), jobs carry virtual-clock
        #: deadlines, and sustained saturation trips the brownout ladder.
        self.overload: OverloadController | None = None
        self.tools: dict[str, ToolDefinition] = {}
        self.executors: dict[str, ToolExecutor] = {}
        self.runners: dict[str, Any] = {}
        self.histories: list[History] = [History("Default history")]
        self.jobs: dict[int, GalaxyJob] = {}
        #: App-level process environment — the paper's
        #: ``GALAXY_GPU_ENABLED`` boolean lives here between the dynamic
        #: rule setting it and the runner reading it.
        self.environment: dict[str, str] = {}
        self.profiler: Any = None
        #: Optional :class:`~repro.galaxy.metrics_plugins.MetricsCollector`
        #: run over every finished job.
        self.metrics_collector: Any = None

    # ------------------------------------------------------------------ #
    # installation
    # ------------------------------------------------------------------ #
    def install_tool(self, tool: ToolDefinition) -> None:
        """Install a tool (what a Galaxy Admin does)."""
        self.tools[tool.tool_id] = tool

    def register_executor(self, executable: str, executor: ToolExecutor) -> None:
        """Bind an executable name from command lines to a Python body."""
        self.executors[executable] = executor

    def register_runner(self, name: str, runner: Any) -> None:
        """Install a job runner under its job_conf name."""
        self.runners[name] = runner

    def tool(self, tool_id: str) -> ToolDefinition:
        """Installed tool by id."""
        try:
            return self.tools[tool_id]
        except KeyError:
            raise ToolNotFoundError(tool_id) from None

    def executor_for(self, executable: str) -> ToolExecutor:
        """Executor for an executable name (basename-insensitive)."""
        if executable in self.executors:
            return self.executors[executable]
        basename = executable.rsplit("/", 1)[-1]
        if basename in self.executors:
            return self.executors[basename]
        raise ExecutorNotFoundError(executable)

    # ------------------------------------------------------------------ #
    # the four-step flow (paper Fig. 2)
    # ------------------------------------------------------------------ #
    def submit(self, tool_id: str, params: Mapping[str, Any] | None = None) -> GalaxyJob:
        """Step 1: user triggers a job submission."""
        job = GalaxyJob(tool=self.tool(tool_id), params=dict(params or {}))
        job.metrics.submit_time = self.node.clock.now
        self.jobs[job.job_id] = job
        self._c_submitted.labels(tool=job.tool.tool_id).inc()
        if self.tracer.enabled:
            self.tracer.begin_job(job.job_id, tool=job.tool.tool_id)
        return job

    def map_destination(self, job: GalaxyJob) -> Destination:
        """Step 2: resolve the (possibly dynamic) destination."""
        tracer = self.tracer
        span = (
            tracer.begin("map", "job", job_id=job.job_id)
            if tracer.enabled
            else None
        )
        try:
            destination = self.job_config.resolve(job, self)
        except Exception as exc:
            if span is not None:
                tracer.end(span, error=repr(exc))
            raise
        job.metrics.destination_id = destination.destination_id
        if span is not None:
            tracer.end(span, destination=destination.destination_id)
        return destination

    def runner_for(self, destination: Destination):
        """The runner instance a destination names."""
        try:
            return self.runners[destination.runner]
        except KeyError:
            raise JobConfError(
                f"destination {destination.destination_id!r} names runner "
                f"{destination.runner!r}, which is not registered"
            ) from None

    def _notify_health(self, job: GalaxyJob) -> None:
        """Feed a device-attributed job failure to the health tracker."""
        if (
            self.health_tracker is None
            or job.state is not JobState.ERROR
            or not job.metrics.gpu_ids
            or self.node.gpu_host is None
        ):
            return
        now = self.node.clock.now
        for gid in job.metrics.gpu_ids:
            try:
                device = self.node.gpu_host.device(int(gid))
            except Exception:
                continue
            if not device.healthy:
                self.health_tracker.record_device_lost(
                    gid, now, note=f"job {job.job_id} died with the device"
                )
            else:
                self.health_tracker.record_error(
                    gid, now, note=f"job {job.job_id} failed on GPU {gid}"
                )

    def place_with_degrade(
        self,
        job: GalaxyJob,
        destination: Destination,
        place: Callable[[Any, Destination], T],
    ) -> tuple[Destination, T] | None:
        """Place a job on a destination, degrading along its resubmit arms.

        ``place(runner, target)`` is the caller's admission step —
        ``queue_job`` for :meth:`run_job`, ``launch`` for the storm
        driver.  A bounded destination at its ``max_queue_depth``
        bounces it with :class:`RejectedBusy` *before* the job leaves
        NEW, so the job is redirected down the destination's
        ``resubmit_destination`` chain (the same arms that catch runtime
        failures double as degrade routes under load), at most
        :attr:`max_resubmit_hops` times.

        Returns the accepting destination and ``place``'s result, or
        None when every arm is full; shedding or waiting is then the
        caller's decision.
        """
        target = destination
        seen = {target.destination_id}
        while True:
            try:
                return target, place(self.runner_for(target), target)
            except RejectedBusy:
                next_id = target.resubmit_destination
                if (
                    next_id is None
                    or next_id in seen
                    or len(seen) > self.max_resubmit_hops
                ):
                    return None
                target = self.job_config.destination(next_id)
                seen.add(next_id)
                # Only an attached controller raises RejectedBusy.
                assert self.overload is not None
                self.overload.record_redirect()
                if self.tracer.enabled:
                    self.tracer.instant(
                        "overload.redirect",
                        "job",
                        job_id=job.job_id,
                        destination=next_id,
                    )

    def _queue_with_degrade(
        self, job: GalaxyJob, destination: Destination
    ) -> Destination | None:
        """Queue a job along its degrade arms; None if shed ``queue_full``."""
        placed = self.place_with_degrade(
            job, destination, lambda runner, target: runner.queue_job(job, target)
        )
        if placed is None:
            # Only an attached controller raises RejectedBusy.
            assert self.overload is not None
            self.overload.shed(
                job,
                ShedReason.QUEUE_FULL,
                note=f"all arms full from {destination.destination_id}",
            )
            return None
        return placed[0]

    def map_or_shed(self, job: GalaxyJob) -> Destination | None:
        """Step 2 under overload control: None if brownout shed the job.

        With an :attr:`overload` controller attached, brownout rung 3
        sheds low-benefit jobs before mapping, and a mapped job is
        stamped with its destination's virtual-clock deadline.
        """
        overload = self.overload
        if overload is not None and overload.should_shed(job.tool.tool_id):
            overload.shed(job, ShedReason.BROWNOUT_SHED, note=job.tool.tool_id)
            return None
        destination = self.map_destination(job)
        if overload is not None and job.metrics.deadline is None:
            job.metrics.deadline = overload.deadline_for(
                destination, job.metrics.submit_time
            )
        return destination

    def run_job(self, job: GalaxyJob) -> GalaxyJob:
        """Steps 2-4: map, execute, collect.  Synchronous.

        When the resolved destination declares a ``resubmit_destination``
        and the job ends in ERROR, a fresh job with the same tool and
        parameters is resubmitted there (Galaxy's ``<resubmit>``
        semantics — each failed job remains in the job table, linked via
        ``resubmitted_as``).  Chains are followed hop by hop up to
        :attr:`max_resubmit_hops`, so a dynamically-cyclic configuration
        cannot bounce a job forever.  The returned job is the final
        attempt; every job in a chain carries the full chain in
        ``metrics.resubmit_chain``.

        With an :attr:`overload` controller attached the path hardens
        (:meth:`map_or_shed`), and REJECTED_BUSY from a bounded
        destination degrades along resubmit arms instead of raising.
        """
        destination = self.map_or_shed(job)
        if destination is None:
            return job
        accepted = self._queue_with_degrade(job, destination)
        if accepted is None:
            return job
        destination = accepted
        self._notify_health(job)

        chain = [job]
        current, dest = job, destination
        while (
            current.state is JobState.ERROR
            and dest.resubmit_destination is not None
            and len(chain) - 1 < self.max_resubmit_hops
        ):
            # The retry bypasses the dynamic rule: the admin pinned the
            # recovery destination (typically one carrying a
            # gpu_enabled_override so the CPU arm runs).
            target = self.job_config.destination(dest.resubmit_destination)
            # Each retry job must own an independent params dict — hop
            # count is bounded by max_resubmit_hops, not the tick rate.
            retry = GalaxyJob(tool=current.tool, params=dict(current.params))  # gyan: disable=PERF605
            retry.metrics.submit_time = self.node.clock.now
            self.jobs[retry.job_id] = retry
            current.metrics.resubmitted_as = retry.job_id
            current.metrics.breakdown["resubmitted_as"] = retry.job_id
            chain.append(retry)
            self._c_resubmits.inc()
            if self.tracer.enabled:
                self.tracer.instant(
                    "resubmit",
                    "job",
                    job_id=current.job_id,
                    hop=len(chain) - 1,
                    retry_job=retry.job_id,
                    destination=target.destination_id,
                )
                self.tracer.begin_job(
                    retry.job_id,
                    tool=retry.tool.tool_id,
                    resubmit_of=current.job_id,
                    hop=len(chain) - 1,
                )
            if self.overload is not None and retry.metrics.deadline is None:
                retry.metrics.deadline = self.overload.deadline_for(
                    target, retry.metrics.submit_time
                )
            accepted_target = self._queue_with_degrade(retry, target)
            if accepted_target is None:
                current, dest = retry, target
                break
            self._notify_health(retry)
            current, dest = retry, accepted_target
        if len(chain) > 1:
            ids = [j.job_id for j in chain]
            for hop in chain:
                hop.metrics.resubmit_chain = list(ids)
        return current
