"""Simulated Singularity runtime with ``--nv`` GPU support.

Singularity needs no daemon, which is why HPC sites prefer it (paper
§II-B); launch overhead is accordingly smaller.  The behaviour GYAN had
to work around is modelled exactly: from version 3.1, bind mounts that
carry ``rw``/``ro`` mode suffixes are rejected when combined with the
``--nv`` flag, so GYAN emits bare ``host:container`` binds (paper §IV-B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from repro.containers.errors import InvalidBindOptionError
from repro.containers.image import ContainerImage, ImageRegistry
from repro.containers.volumes import VolumeMount
from repro.gpusim.clock import VirtualClock

#: Singularity starts the process in the caller's namespace: far cheaper
#: than Docker's daemon round-trip.
SINGULARITY_LAUNCH_OVERHEAD_S = 0.12
NV_HOOK_OVERHEAD_S = 0.03


@dataclass(frozen=True, order=True)
class SingularityVersion:
    """A Singularity release, ordered for the >= 3.1 behaviour switch."""

    major: int
    minor: int

    @property
    def rejects_bind_modes_with_nv(self) -> bool:
        """True from 3.1 on — the incompatibility GYAN fixes."""
        return (self.major, self.minor) >= (3, 1)


@dataclass
class SingularityRunResult:
    """Everything a ``singularity exec`` produced."""

    command: list[str]
    image: ContainerImage
    env: dict[str, str]
    launch_overhead: float
    payload_result: object = None
    gpu_enabled: bool = False

    @property
    def command_line(self) -> str:
        """The argv joined for display/diffing."""
        return " ".join(self.command)


class SingularityRuntime:
    """A Singularity launcher simulator.

    Parameters
    ----------
    registry:
        Image source (Singularity can run docker:// references, which is
        how Galaxy uses it with Biocontainers).
    version:
        Installed Singularity version; controls the bind-mode rejection.
    """

    def __init__(
        self,
        registry: ImageRegistry,
        clock: VirtualClock,
        version: SingularityVersion = SingularityVersion(3, 1),
    ) -> None:
        self.registry = registry
        self.clock = clock
        self.version = version
        self.run_log: list[SingularityRunResult] = []
        #: Optional :class:`~repro.gpusim.faults.FaultPlane` whose pending
        #: container failures this launcher serves (one per ``run``).
        self.fault_plane = None

    # ------------------------------------------------------------------ #
    def build_exec_command(
        self,
        image_reference: str,
        tool_command: list[str],
        volumes: list[VolumeMount] | None = None,
        env: Mapping[str, str] | None = None,
        nv: bool = False,
        include_bind_modes: bool = True,
    ) -> list[str]:
        """Assemble the ``singularity exec`` argv.

        ``include_bind_modes=False`` reproduces GYAN's fix: the ``rw``/
        ``ro`` suffixes are dropped from every ``-B`` bind.
        """
        command_part: list[str] = ["singularity", "exec"]
        for mount in volumes or []:
            command_part.extend(["-B", mount.singularity_spec(include_bind_modes)])
        for key, value in sorted((env or {}).items()):
            command_part.extend(["--env", f"{key}={value}"])
        if nv:
            command_part.append("--nv")
        command_part.append(f"docker://{image_reference}")
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
        nv: bool = False,
        include_bind_modes: bool = True,
    ) -> SingularityRunResult:
        """Validate, charge overheads, run the payload.

        Raises
        ------
        InvalidBindOptionError
            When ``nv`` is combined with mode-suffixed binds on a
            Singularity >= 3.1 — the pre-GYAN failure.
        ImageNotFoundError
            Unknown image reference.
        """
        volumes = volumes or []
        if self.fault_plane is not None:
            injected = self.fault_plane.take_container_failure()
            if injected is not None:
                from repro.containers.errors import ContainerLaunchError

                raise ContainerLaunchError(injected)
        if nv and include_bind_modes and volumes and self.version.rejects_bind_modes_with_nv:
            raise InvalidBindOptionError(volumes[0].mode)
        image, pull = self.registry.pull(image_reference)
        if pull.duration > 0:
            self.clock.advance(pull.duration)
        overhead = SINGULARITY_LAUNCH_OVERHEAD_S + (NV_HOOK_OVERHEAD_S if nv else 0.0)
        self.clock.advance(overhead)
        command = self.build_exec_command(
            image_reference, tool_command, volumes, env, nv, include_bind_modes
        )
        container_env = dict(env or {})
        result = SingularityRunResult(
            command=command,
            image=image,
            env=container_env,
            launch_overhead=overhead,
            gpu_enabled=nv,
        )
        if payload is not None:
            result.payload_result = payload(container_env)
        self.run_log.append(result)
        return result
