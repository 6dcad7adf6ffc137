"""Singularity runtime: --nv flag and the 3.1 bind-mode incompatibility."""

import pytest

from repro.containers.errors import InvalidBindOptionError
from repro.containers.image import RACON_GPU_IMAGE, ImageRegistry
from repro.containers.singularity import SingularityRuntime, SingularityVersion
from repro.containers.volumes import VolumeMount
from repro.gpusim.clock import VirtualClock


def runtime_for(version: SingularityVersion) -> SingularityRuntime:
    return SingularityRuntime(ImageRegistry(), VirtualClock(), version=version)


VOLUMES = [VolumeMount("/h", "/c", "rw"), VolumeMount("/i", "/d", "ro")]


class TestVersionBehaviour:
    def test_version_ordering(self):
        assert SingularityVersion(3, 1) > SingularityVersion(3, 0)

    def test_rejects_bind_modes_from_3_1(self):
        assert SingularityVersion(3, 1).rejects_bind_modes_with_nv
        assert SingularityVersion(4, 0).rejects_bind_modes_with_nv
        assert not SingularityVersion(3, 0).rejects_bind_modes_with_nv

    def test_pre_gyan_failure_reproduced(self):
        """§IV-B: rw/ro flags + --nv fail on Singularity 3.1."""
        runtime = runtime_for(SingularityVersion(3, 1))
        with pytest.raises(InvalidBindOptionError):
            runtime.run(
                RACON_GPU_IMAGE.reference,
                ["racon_gpu"],
                volumes=VOLUMES,
                nv=True,
                include_bind_modes=True,
            )

    def test_gyan_fix_strips_modes_and_succeeds(self):
        runtime = runtime_for(SingularityVersion(3, 1))
        result = runtime.run(
            RACON_GPU_IMAGE.reference,
            ["racon_gpu"],
            volumes=VOLUMES,
            nv=True,
            include_bind_modes=False,
        )
        assert result.gpu_enabled
        assert "/h:/c" in result.command and "/h:/c:rw" not in result.command

    def test_old_singularity_accepts_modes_with_nv(self):
        runtime = runtime_for(SingularityVersion(3, 0))
        result = runtime.run(
            RACON_GPU_IMAGE.reference, ["t"], volumes=VOLUMES, nv=True
        )
        assert "/h:/c:rw" in result.command

    def test_modes_fine_without_nv(self):
        runtime = runtime_for(SingularityVersion(3, 1))
        result = runtime.run(RACON_GPU_IMAGE.reference, ["t"], volumes=VOLUMES)
        assert "/h:/c:rw" in result.command
        assert "--nv" not in result.command


class TestCommandAssembly:
    def test_nv_flag_position(self):
        runtime = runtime_for(SingularityVersion(3, 1))
        command = runtime.build_exec_command(
            "img:1", ["tool"], nv=True, include_bind_modes=False
        )
        assert command[:2] == ["singularity", "exec"]
        assert "--nv" in command
        assert command.index("--nv") < command.index("docker://img:1")

    def test_docker_uri_scheme(self):
        runtime = runtime_for(SingularityVersion(3, 1))
        command = runtime.build_exec_command("org/img:2", ["t"])
        assert "docker://org/img:2" in command

    def test_launch_overhead_cheaper_than_docker(self):
        from repro.containers.docker import DOCKER_LAUNCH_OVERHEAD_S

        runtime = runtime_for(SingularityVersion(3, 1))
        result = runtime.run(RACON_GPU_IMAGE.reference, ["t"], nv=True)
        assert result.launch_overhead < DOCKER_LAUNCH_OVERHEAD_S

    def test_env_passed_to_payload(self):
        runtime = runtime_for(SingularityVersion(3, 1))
        seen = {}
        runtime.run(
            RACON_GPU_IMAGE.reference,
            ["t"],
            payload=lambda env: seen.update(env),
            env={"GALAXY_GPU_ENABLED": "true"},
        )
        assert seen["GALAXY_GPU_ENABLED"] == "true"

    def test_volume_mode_validation(self):
        with pytest.raises(ValueError):
            VolumeMount("/a", "/b", mode="rx")
