"""Simulated Docker runtime with NVIDIA-Docker GPU support.

The object under test is the *command line* Galaxy assembles: GYAN's
change is literally ``command_part.append("--gpus all")`` guarded by
``os.environ['GALAXY_GPU_ENABLED'] == "true"`` (paper §IV-B).  The
simulator builds the same argv, enforces the constraints a real daemon
would (image must exist; ``--gpus`` needs the NVIDIA runtime), charges
the measured cold-start overhead, and then executes the tool payload
with the container's environment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from repro.containers.errors import ContainerLaunchError, GpuRuntimeMissingError
from repro.containers.image import ContainerImage, ImageRegistry
from repro.containers.volumes import VolumeMount
from repro.gpusim.clock import VirtualClock

#: Steady-state container launch + cold-start cost.  Paper §VI-B measures
#: "approximately 0.6 s (36 %) of the time was spent on container
#: launching and cold start overhead" for the Racon-GPU container.
DOCKER_LAUNCH_OVERHEAD_S = 0.55
#: Additional per-bind-mount setup cost.
PER_VOLUME_OVERHEAD_S = 0.01
#: Extra cost of wiring the NVIDIA runtime hooks into the container.
GPU_HOOK_OVERHEAD_S = 0.04


@dataclass
class DockerRunResult:
    """Everything a ``docker run`` produced."""

    command: list[str]
    image: ContainerImage
    env: dict[str, str]
    pull_duration: float
    launch_overhead: float
    payload_result: object = None
    gpu_enabled: bool = False

    @property
    def command_line(self) -> str:
        """The argv joined for display/diffing."""
        return " ".join(self.command)


class DockerRuntime:
    """A node-local Docker daemon simulator.

    Parameters
    ----------
    registry:
        Image source/cache.
    nvidia_docker_installed:
        Whether the NVIDIA container runtime is present.  When it is not,
        any ``--gpus`` launch fails exactly like the real daemon — the
        failure mode GYAN's availability check exists to avoid.
    clock:
        Virtual clock charged with pull and launch overheads.
    """

    def __init__(
        self,
        registry: ImageRegistry,
        clock: VirtualClock,
        nvidia_docker_installed: bool = True,
    ) -> None:
        self.registry = registry
        self.clock = clock
        self.nvidia_docker_installed = nvidia_docker_installed
        self.run_log: list[DockerRunResult] = []
        #: Optional :class:`~repro.gpusim.faults.FaultPlane` whose pending
        #: container failures this daemon serves (one per ``run``).
        self.fault_plane = None

    # ------------------------------------------------------------------ #
    def build_run_command(
        self,
        image_reference: str,
        tool_command: list[str],
        volumes: list[VolumeMount] | None = None,
        env: Mapping[str, str] | None = None,
        gpus: str | None = None,
    ) -> list[str]:
        """Assemble the ``docker run`` argv Galaxy would execute.

        ``gpus`` is the value of the ``--gpus`` flag (GYAN always passes
        ``"all"`` and steers devices via ``CUDA_VISIBLE_DEVICES`` instead,
        because per-id ``--gpus`` "did not work as intended" — §IV-C1).
        """
        command_part: list[str] = ["docker", "run", "--rm"]
        for mount in volumes or []:
            command_part.extend(["-v", mount.docker_spec()])
        for key, value in sorted((env or {}).items()):
            command_part.extend(["-e", f"{key}={value}"])
        if gpus is not None:
            command_part.append(f"--gpus {gpus}")
        command_part.append(image_reference)
        command_part.extend(tool_command)
        return command_part

    # ------------------------------------------------------------------ #
    def run(
        self,
        image_reference: str,
        tool_command: list[str],
        payload: Callable[[dict[str, str]], object] | None = None,
        volumes: list[VolumeMount] | None = None,
        env: Mapping[str, str] | None = None,
        gpus: str | None = None,
    ) -> DockerRunResult:
        """Pull (if needed), validate, charge overheads, run the payload.

        Raises
        ------
        ImageNotFoundError
            Unknown image reference.
        GpuRuntimeMissingError
            ``gpus`` requested without NVIDIA-Docker installed.
        ContainerLaunchError
            An injected transient daemon failure (chaos testing).
        """
        if self.fault_plane is not None:
            injected = self.fault_plane.take_container_failure()
            if injected is not None:
                raise ContainerLaunchError(injected)
        if gpus is not None and not self.nvidia_docker_installed:
            raise GpuRuntimeMissingError()
        image, pull = self.registry.pull(image_reference)
        if pull.duration > 0:
            self.clock.advance(pull.duration)
        volumes = volumes or []
        overhead = DOCKER_LAUNCH_OVERHEAD_S + PER_VOLUME_OVERHEAD_S * len(volumes)
        if gpus is not None:
            overhead += GPU_HOOK_OVERHEAD_S
        self.clock.advance(overhead)
        command = self.build_run_command(
            image_reference, tool_command, volumes, env, gpus
        )
        container_env = dict(env or {})
        result = DockerRunResult(
            command=command,
            image=image,
            env=container_env,
            pull_duration=pull.duration,
            launch_overhead=overhead,
            gpu_enabled=gpus is not None,
        )
        if payload is not None:
            result.payload_result = payload(container_env)
        self.run_log.append(result)
        return result
