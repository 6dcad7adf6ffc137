"""Shared runner machinery: environment prep, command assembly, lifecycle.

The launch/finish split exists because the paper's multi-GPU experiments
overlap tool executions: Case 2 submits a second Bonito *while the first
still occupies GPU 1*, and the allocation logic must observe that
occupancy.  ``launch`` runs everything up to and including process start
(so the process is visible to ``nvidia-smi``); ``finish`` runs the tool
body and tears down.  ``queue_job`` is the everyday launch-then-finish.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Protocol, TypeVar

from repro.containers.errors import ContainerLaunchError
from repro.core.retry import DEFAULT_LAUNCH_RETRY, is_transient_nvml_error, retry_call
from repro.galaxy.app import (
    GalaxyApp,
    ToolExecutionContext,
    ToolExecutionResult,
    ToolExecutor,
)
from repro.galaxy.errors import GalaxyError
from repro.galaxy.job import GalaxyJob, JobState
from repro.galaxy.job_conf import Destination, parse_bool_param
from repro.galaxy.params import GPU_ENABLED_ENV_VAR, build_param_dict

T = TypeVar("T")


class GpuMapper(Protocol):
    """GYAN's environment-preparation hook (paper Pseudocode 2)."""

    def prepare_environment(self, job: GalaxyJob) -> dict[str, str]:
        """Return env entries (``GALAXY_GPU_ENABLED``, ``CUDA_VISIBLE_DEVICES``)."""
        ...


class UsageMonitor(Protocol):
    """The §V-C hardware usage script's start/stop interface."""

    def start(self, job: GalaxyJob) -> None:
        """Begin per-second sampling for ``job``."""
        ...

    def stop(self, job: GalaxyJob) -> None:
        """Stop sampling and post-process statistics."""
        ...


@dataclass
class LaunchedTool:
    """A tool whose process has started but whose body has not run.

    ``runner.finish(launched)`` runs the body and tears down.
    """

    job: GalaxyJob
    runner: "BaseJobRunner"
    argv: list[str]
    executor: ToolExecutor
    context: ToolExecutionContext
    host_process: Any = None
    cpu_token: int | None = None
    extra_overhead: float = 0.0
    finisher: Any = None  # runner-specific completion callable
    run_span: Any = None  # open "run" trace span, closed by finish()


class BaseJobRunner:
    """Common logic for all runners.

    Parameters
    ----------
    app:
        The Galaxy application.
    gpu_mapper:
        GYAN's mapper, or ``None`` for stock behaviour.
    usage_monitor:
        Optional §V-C monitor started/stopped around each tool.
    """

    runner_name = "base"

    def __init__(
        self,
        app: GalaxyApp,
        gpu_mapper: GpuMapper | None = None,
        usage_monitor: UsageMonitor | None = None,
    ) -> None:
        self.app = app
        self.gpu_mapper = gpu_mapper
        self.usage_monitor = usage_monitor
        registry = app.metrics_registry
        self._c_requeues = registry.counter(
            "gyan_runner_requeues_total",
            "Transient launch failures absorbed by requeues, by runner",
            labels=("runner",),
        ).labels(runner=self.runner_name)
        self._c_finished = registry.counter(
            "gyan_jobs_finished_total",
            "Jobs reaching a terminal state, by runner and state",
            labels=("runner", "state"),
        )
        self._h_queue = registry.histogram(
            "gyan_job_queue_seconds",
            "Virtual seconds between submission and tool start",
        )
        self._h_runtime = registry.histogram(
            "gyan_job_runtime_seconds",
            "Virtual seconds of tool body execution",
        )

    @property
    def requeues(self) -> int:
        """Container daemon hiccups absorbed by retries (diagnostics).

        Registry-backed view over ``gyan_runner_requeues_total``; bump it
        via :meth:`_record_requeue`, never by assignment.
        """
        return int(self._c_requeues.value)

    def _record_requeue(self, job: GalaxyJob | None = None) -> None:
        """Count one requeue and annotate the trace (if enabled)."""
        self._c_requeues.inc()
        tracer = self.app.tracer
        if tracer.enabled:
            tracer.instant(
                "requeue",
                "runner",
                job_id=None if job is None else job.job_id,
                runner=self.runner_name,
            )

    def _run_container(self, job: GalaxyJob, run: Callable[[], T]) -> T:
        """Call a container runtime's ``run``, retrying on a resilient app.

        With a health tracker on the app, each :class:`ContainerLaunchError`
        (a daemon hiccup) is a requeue and a backoff under
        :data:`~repro.core.retry.DEFAULT_LAUNCH_RETRY` until the budget is
        spent, then fails the job; without one the first hiccup does.
        """
        if self.app.health_tracker is None:
            return run()
        return retry_call(
            self.app.node.clock,
            DEFAULT_LAUNCH_RETRY,
            run,
            retryable=lambda exc: isinstance(exc, ContainerLaunchError),
            on_retry=lambda _attempt, _exc: self._record_requeue(job),
        )

    # ------------------------------------------------------------------ #
    # environment and command assembly
    # ------------------------------------------------------------------ #
    def build_environment(
        self, job: GalaxyJob, destination: Destination | None = None
    ) -> dict[str, str]:
        """App environment plus GYAN's per-job GPU entries (if installed).

        A destination may pin ``gpu_enabled_override`` (``"true"`` /
        ``"false"``) — admins use this on recovery destinations so a job
        resubmitted after a GPU failure runs its CPU arm regardless of
        what the mapper would decide.
        """
        env = dict(self.app.environment)
        if self.gpu_mapper is not None:
            env.update(self.gpu_mapper.prepare_environment(job))
        env.setdefault(GPU_ENABLED_ENV_VAR, "false")
        if destination is not None:
            override = destination.params.get("gpu_enabled_override")
            if override is not None:
                # Normalise through the shared truthy helper: admins write
                # "False"/"no"/" true " in the wild, and the raw string
                # comparison used to leave CUDA_VISIBLE_DEVICES set for a
                # "False" override — handing a pinned-CPU job the GPU.
                enabled = parse_bool_param(override)
                env[GPU_ENABLED_ENV_VAR] = "true" if enabled else "false"
                if not enabled:
                    env.pop("CUDA_VISIBLE_DEVICES", None)
        return env

    def build_command_line(self, job: GalaxyJob, env: dict[str, str]) -> list[str]:
        """Render the tool's Cheetah command into argv."""
        if job.tool.command_template is None:
            raise GalaxyError(f"tool {job.tool.tool_id!r} has no command block")
        param_dict = build_param_dict(job, environment=env)
        template = job.tool.command_template
        try:
            job.command_line, argv = template.render_argv(param_dict)
        except ValueError:  # unbalanced quote: the failed job still shows its line
            job.command_line = template.render_command(param_dict)
            raise
        if not argv:
            raise GalaxyError(f"tool {job.tool.tool_id!r} rendered an empty command")
        return argv

    def _gpu_process_name(self, argv: list[str]) -> str:
        """Process name as ``nvidia-smi`` will display it."""
        executable = argv[0].rsplit("/", 1)[-1]
        return f"/usr/bin/{executable}"

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def launch(self, job: GalaxyJob, destination: Destination) -> LaunchedTool:
        """QUEUED -> RUNNING: prepare env, assemble command, start process.

        With an overload controller installed on the app, admission to
        the destination's bounded queue happens *before* the QUEUED
        transition — a :class:`~repro.resilience.shedding.RejectedBusy`
        leaves the job in NEW so the caller can redirect it along a
        degrade route or hold it under backpressure.
        """
        tracer = self.app.tracer
        now = self.app.node.clock.now
        overload = self.app.overload
        if overload is not None:
            overload.admit(job, destination)  # may raise RejectedBusy
        job.transition(JobState.QUEUED, now)
        job.metrics.destination_id = destination.destination_id
        launch_span = (
            tracer.begin(
                "launch",
                "runner",
                job_id=job.job_id,
                runner=self.runner_name,
                destination=destination.destination_id,
            )
            if tracer.enabled
            else None
        )
        try:
            env = self.build_environment(job, destination)
            job.environment = env
            argv = self.build_command_line(job, env)
            executor = self.app.executor_for(argv[0])

            host_process = None
            gpu_devices: list = []
            pid = 0
            if (
                env.get(GPU_ENABLED_ENV_VAR) == "true"
                and self.app.node.gpu_host is not None
            ):
                mask = env.get("CUDA_VISIBLE_DEVICES")
                host_process = self.app.node.gpu_host.launch_process(
                    name=self._gpu_process_name(argv), cuda_visible_devices=mask
                )
                pid = host_process.pid
                gpu_devices = self.app.node.gpu_host.visible_devices(mask)
                job.metrics.gpu_ids = [str(d.minor_number) for d in gpu_devices]
        except Exception as exc:
            tracer.end(launch_span, error=repr(exc))
            raise

        context = ToolExecutionContext(
            node=self.app.node,
            job=job,
            environment=env,
            pid=pid,
            gpu_devices=gpu_devices,
            profiler=self.app.profiler,
        )
        now = self.app.node.clock.now
        job.transition(JobState.RUNNING, now)
        job.metrics.start_time = now
        if job.metrics.submit_time is not None:
            self._h_queue.observe(now - job.metrics.submit_time)
        run_span = None
        if launch_span is not None:
            tracer.end(
                launch_span,
                gpu_enabled=env.get(GPU_ENABLED_ENV_VAR) == "true",
                gpu_ids=list(job.metrics.gpu_ids),
            )
            run_span = tracer.begin(
                "run",
                "runner",
                job_id=job.job_id,
                runner=self.runner_name,
            )
        if self.usage_monitor is not None:
            self.usage_monitor.start(job)
        return LaunchedTool(
            job=job,
            runner=self,
            argv=argv,
            executor=executor,
            context=context,
            host_process=host_process,
            run_span=run_span,
        )

    def finish(self, launched: LaunchedTool) -> GalaxyJob:
        """RUNNING -> OK/ERROR: run the tool body and tear down."""
        job = launched.job
        try:
            if launched.finisher is not None:
                result: ToolExecutionResult = launched.finisher()
            else:
                result = launched.executor(launched.argv, launched.context)
        except Exception as exc:
            self._teardown(launched)
            job.fail(f"tool execution raised: {exc!r}", self.app.node.clock.now)
            self._finalize_observability(launched, error=repr(exc))
            return job
        self._teardown(launched)
        now = self.app.node.clock.now
        job.stdout = result.stdout
        job.stderr = result.stderr
        job.exit_code = result.exit_code
        job.result = result.result
        job.metrics.breakdown.update(result.breakdown)
        if launched.extra_overhead:
            job.metrics.breakdown.setdefault("container_overhead", 0.0)
            job.metrics.breakdown["container_overhead"] += launched.extra_overhead
        job.metrics.end_time = now
        if result.exit_code == 0 and self._overran_runtime_budget(job):
            # The kill path: the destination's runtime budget is the
            # contract; an overrun becomes a typed ERROR so the app's
            # resubmit chain retries it on a degrade arm instead of
            # silently keeping the result.
            job.fail(
                "killed: runtime budget exceeded "
                f"(ran {job.metrics.runtime_seconds:g}s)",
                now,
            )
        elif result.exit_code == 0:
            job.transition(JobState.OK, now)
            self._collect_outputs(job)
        else:
            job.transition(JobState.ERROR, now)
        self._finalize_observability(launched)
        collector = self.app.metrics_collector
        if collector is not None:
            collector.collect(job)
        return job

    def _overran_runtime_budget(self, job: GalaxyJob) -> bool:
        """Did this job run past its destination's ``runtime_budget_s``?"""
        overload = self.app.overload
        if overload is None or job.metrics.destination_id is None:
            return False
        try:
            destination = self.app.job_config.destination(
                job.metrics.destination_id
            )
        except Exception:
            return False
        budget = overload.runtime_budget(destination)
        runtime = job.metrics.runtime_seconds
        if budget is None or runtime is None or runtime <= budget:
            return False
        overload.record_runtime_kill()
        return True

    def _finalize_observability(
        self, launched: LaunchedTool, error: str | None = None
    ) -> None:
        """Terminal bookkeeping: histograms, finish counter, span closure."""
        job = launched.job
        overload = self.app.overload
        if overload is not None:
            overload.release(job)
        state = job.state.value
        self._c_finished.labels(runner=self.runner_name, state=state).inc()
        if (
            job.metrics.start_time is not None
            and job.metrics.end_time is not None
        ):
            self._h_runtime.observe(
                job.metrics.end_time - job.metrics.start_time
            )
        tracer = self.app.tracer
        if tracer.enabled:
            if error is not None:
                tracer.end(launched.run_span, state=state, error=error)
            else:
                tracer.end(
                    launched.run_span, state=state, exit_code=job.exit_code
                )
            tracer.end_job(job.job_id, state=state)

    def _collect_outputs(self, job: GalaxyJob) -> None:
        """Step 4 of the paper's Fig. 2: results land in the history."""
        from repro.galaxy.history import Dataset

        if not self.app.histories:
            return
        history = self.app.histories[0]
        for output in job.tool.outputs:
            history.add(
                Dataset(
                    name=f"{job.tool.tool_id}/{output.name}",
                    format=output.format,
                    payload=job.result,
                    created_by_job=job.job_id,
                )
            )

    def _teardown(self, launched: LaunchedTool) -> None:
        if self.usage_monitor is not None:
            self.usage_monitor.stop(launched.job)
        if launched.host_process is not None and launched.host_process.alive:
            self.app.node.gpu_host.terminate_process(launched.host_process.pid)
        if launched.cpu_token is not None:
            self.app.node.release_cpus(launched.cpu_token)
            launched.cpu_token = None

    def _fail_terminal(self, job: GalaxyJob, message: str, queue_span) -> GalaxyJob:
        """Fail a queued job whose launch failed, with terminal bookkeeping."""
        tracer = self.app.tracer
        job.fail(message, self.app.node.clock.now)
        overload = self.app.overload
        if overload is not None:
            overload.release(job)
        tracer.end(queue_span, error=message)
        state = job.state.value
        self._c_finished.labels(runner=self.runner_name, state=state).inc()
        if tracer.enabled:
            tracer.end_job(job.job_id, state=state, error=message)
        return job

    def queue_job(self, job: GalaxyJob, destination: Destination) -> GalaxyJob:
        """The synchronous everyday path: launch then finish.

        A job whose deadline expired before it reached the runner (the
        dynamic rule's NVML backoff can outlast a short ``deadline_s``)
        is shed with a typed reason.  A transient NVML or ``nvidia-smi``
        failure at launch — which only a stock mapper lets through; a
        resilient one degrades the job to its CPU arm instead — fails
        the job cleanly rather than crashing the app.  Anything else
        (REJECTED_BUSY included) propagates to the caller.
        """
        tracer = self.app.tracer
        overload = self.app.overload
        queue_span = (
            tracer.begin(
                "queue",
                "runner",
                job_id=job.job_id,
                runner=self.runner_name,
                destination=destination.destination_id,
            )
            if tracer.enabled
            else None
        )
        if overload is not None and overload.expired(job):
            from repro.resilience.shedding import ShedReason

            overload.shed(
                job,
                ShedReason.DEADLINE_EXPIRED,
                note=f"destination {destination.destination_id}",
            )
            tracer.end(queue_span, shed="deadline_expired")
            self._c_finished.labels(
                runner=self.runner_name, state=job.state.value
            ).inc()
            return job
        try:
            launched = self.launch(job, destination)
        except Exception as exc:
            if not is_transient_nvml_error(exc) or job.is_terminal:
                tracer.end(queue_span, error=repr(exc))
                raise
            return self._fail_terminal(job, f"launch failed: {exc}", queue_span)
        tracer.end(queue_span)
        return self.finish(launched)
