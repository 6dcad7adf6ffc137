"""Docker job runner — Galaxy's container launch path, GPU-hookable.

When a destination sets ``docker_enabled=true`` (paper §IV-B) "the Docker
runner takes effect": the container launching script reads the required
container ID from the wrapper, pulls the image, and assembles a ``docker
run`` command.  GYAN's change is the conditional
``command_part.append("--gpus all")`` guarded by the
``GALAXY_GPU_ENABLED`` environment variable — injected here through the
``gpu_flag_provider`` hook so stock behaviour (no GPU access, ever) stays
the default.
"""

from __future__ import annotations

from typing import Callable

from repro.containers.docker import DockerRuntime
from repro.containers.volumes import VolumeMount
from repro.galaxy.app import GalaxyApp, ToolExecutionResult
from repro.galaxy.errors import GalaxyError
from repro.galaxy.job import GalaxyJob
from repro.galaxy.job_conf import Destination
from repro.galaxy.runners.base import BaseJobRunner, GpuMapper, LaunchedTool, UsageMonitor

#: Signature of the GPU-flag hook: env -> value for ``--gpus`` (or None).
GpuFlagProvider = Callable[[dict[str, str]], str | None]


class DockerJobRunner(BaseJobRunner):
    """Launches tools inside (simulated) Docker containers."""

    runner_name = "docker"

    def __init__(
        self,
        app: GalaxyApp,
        docker: DockerRuntime,
        gpu_mapper: GpuMapper | None = None,
        gpu_flag_provider: GpuFlagProvider | None = None,
        usage_monitor: UsageMonitor | None = None,
    ) -> None:
        super().__init__(
            app, gpu_mapper=gpu_mapper, usage_monitor=usage_monitor
        )
        self.docker = docker
        self.gpu_flag_provider = gpu_flag_provider

    def default_volumes(self, job: GalaxyJob) -> list[VolumeMount]:
        """Galaxy's standard binds: working dir (rw) and inputs (ro)."""
        return [
            VolumeMount(
                host_path=f"/galaxy/jobs/{job.job_id}/working",
                container_path="/data/working",
                mode="rw",
            ),
            VolumeMount(
                host_path="/galaxy/datasets",
                container_path="/data/inputs",
                mode="ro",
            ),
        ]

    def launch(self, job: GalaxyJob, destination: Destination) -> LaunchedTool:
        """Base launch plus container validation and run wiring."""
        if not destination.docker_enabled:
            raise GalaxyError(
                f"destination {destination.destination_id!r} does not enable docker"
            )
        container = job.tool.container_for("docker")
        if container is None:
            raise GalaxyError(
                f"tool {job.tool.tool_id!r} declares no docker container"
            )
        launched = super().launch(job, destination)
        job.metrics.container = container.identifier

        gpus = None
        if self.gpu_flag_provider is not None:
            gpus = self.gpu_flag_provider(launched.context.environment)

        runner = self

        def run_in_container() -> ToolExecutionResult:
            clock_before = runner.app.node.clock.now

            def payload(container_env: dict[str, str]) -> ToolExecutionResult:
                return launched.executor(launched.argv, launched.context)

            result = runner._run_container(
                job,
                lambda: runner.docker.run(
                    image_reference=container.identifier,
                    tool_command=launched.argv,
                    payload=payload,
                    volumes=runner.default_volumes(job),
                    env=launched.context.environment,
                    gpus=gpus,
                ),
            )
            launched.extra_overhead = result.pull_duration + result.launch_overhead
            execution: ToolExecutionResult = result.payload_result
            execution.breakdown.setdefault("container_launch", result.launch_overhead)
            execution.breakdown.setdefault("container_pull", result.pull_duration)
            execution.breakdown.setdefault(
                "container_total", runner.app.node.clock.now - clock_before
            )
            return execution

        launched.finisher = run_in_container
        return launched
