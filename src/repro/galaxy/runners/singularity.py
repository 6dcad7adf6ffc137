"""Singularity job runner — the HPC-friendly container path.

GYAN's Singularity support (paper §IV-B) appends ``--nv`` when
``GALAXY_GPU_ENABLED`` is true *and* strips the ``rw``/``ro`` bind-mode
suffixes, because Singularity >= 3.1 rejects them alongside the GPU
flag.  Both behaviours arrive through hooks so the stock (broken) path
remains testable.
"""

from __future__ import annotations

from typing import Callable

from repro.containers.singularity import SingularityRuntime
from repro.containers.volumes import VolumeMount
from repro.galaxy.app import GalaxyApp, ToolExecutionResult
from repro.galaxy.errors import GalaxyError
from repro.galaxy.job import GalaxyJob
from repro.galaxy.job_conf import Destination
from repro.galaxy.runners.base import BaseJobRunner, GpuMapper, LaunchedTool, UsageMonitor

#: env -> whether to pass ``--nv``.
NvFlagProvider = Callable[[dict[str, str]], bool]


class SingularityJobRunner(BaseJobRunner):
    """Launches tools inside (simulated) Singularity containers."""

    runner_name = "singularity"

    def __init__(
        self,
        app: GalaxyApp,
        singularity: SingularityRuntime,
        gpu_mapper: GpuMapper | None = None,
        nv_flag_provider: NvFlagProvider | None = None,
        strip_bind_modes_with_nv: bool = True,
        usage_monitor: UsageMonitor | None = None,
    ) -> None:
        super().__init__(
            app, gpu_mapper=gpu_mapper, usage_monitor=usage_monitor
        )
        self.singularity = singularity
        self.nv_flag_provider = nv_flag_provider
        #: GYAN's fix.  False reproduces pre-GYAN Galaxy, which fails on
        #: Singularity >= 3.1 when the GPU flag is added.
        self.strip_bind_modes_with_nv = strip_bind_modes_with_nv

    def default_volumes(self, job: GalaxyJob) -> list[VolumeMount]:
        """Galaxy's standard binds (same paths as the Docker runner)."""
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
        """Base launch plus Singularity run wiring."""
        if not destination.singularity_enabled:
            raise GalaxyError(
                f"destination {destination.destination_id!r} does not enable singularity"
            )
        container = job.tool.container_for("singularity") or job.tool.container_for(
            "docker"
        )
        if container is None:
            raise GalaxyError(
                f"tool {job.tool.tool_id!r} declares no container"
            )
        launched = super().launch(job, destination)
        job.metrics.container = container.identifier

        nv = False
        if self.nv_flag_provider is not None:
            nv = self.nv_flag_provider(launched.context.environment)
        include_modes = not (nv and self.strip_bind_modes_with_nv)

        runner = self

        def run_in_container() -> ToolExecutionResult:
            def payload(container_env: dict[str, str]) -> ToolExecutionResult:
                return launched.executor(launched.argv, launched.context)

            result = runner._run_container(
                job,
                lambda: runner.singularity.run(
                    image_reference=container.identifier,
                    tool_command=launched.argv,
                    payload=payload,
                    volumes=runner.default_volumes(job),
                    env=launched.context.environment,
                    nv=nv,
                    include_bind_modes=include_modes,
                ),
            )
            launched.extra_overhead = result.launch_overhead
            execution: ToolExecutionResult = result.payload_result
            execution.breakdown.setdefault("container_launch", result.launch_overhead)
            return execution

        launched.finisher = run_in_container
        return launched
