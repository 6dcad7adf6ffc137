"""A DRM (Slurm-style) job runner.

The paper's Fig. 2 flow offers two execution paths: "Galaxy submits the
job to a job scheduler, or executes it locally as a dedicated process".
The evaluation uses the local path; related work (§II-D) contrasts with
Slurm-based deployments.  This runner closes that gap: jobs go through
the cluster scheduler's admission (CPU-slot accounting, FIFO queueing)
and carry a generated sbatch-style submit script whose ``--gres=gpu:K``
request is derived from GYAN's allocation decision — showing how the
paper's mapping layer composes with a DRM instead of bypassing it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.scheduler import ClusterScheduler, SlotRequest
from repro.galaxy.app import GalaxyApp
from repro.galaxy.errors import GalaxyError
from repro.galaxy.job import GalaxyJob
from repro.galaxy.job_conf import Destination
from repro.galaxy.runners.base import BaseJobRunner, GpuMapper, UsageMonitor


@dataclass
class SubmitRecord:
    """One DRM submission: the script and the scheduler-side job."""

    galaxy_job_id: int
    script: str
    drm_job_id: int


class DrmJobRunner(BaseJobRunner):
    """Submits Galaxy jobs through the cluster scheduler.

    Differences from the local runner, mirroring real DRM behaviour:

    * admission is the scheduler's (FIFO, CPU-slot limited) — a full
      node *queues* jobs instead of failing them;
    * the GYAN environment is computed at *dispatch time inside the
      allocation* (the job body), not at submit time, so a queued GPU
      job sees the device occupancy of when it actually starts;
    * every submission renders an sbatch-style script recording the
      resource request (`--gres=gpu:K` from the allocation decision).
    """

    runner_name = "drm"

    def __init__(
        self,
        app: GalaxyApp,
        scheduler: ClusterScheduler,
        gpu_mapper: GpuMapper | None = None,
        usage_monitor: UsageMonitor | None = None,
        partition: str = "gpu",
    ) -> None:
        super().__init__(app, gpu_mapper=gpu_mapper, usage_monitor=usage_monitor)
        self.scheduler = scheduler
        self.partition = partition
        self.submissions: list[SubmitRecord] = []

    # ------------------------------------------------------------------ #
    def build_submit_script(
        self, job: GalaxyJob, env: dict[str, str], command: str, cpus: int
    ) -> str:
        """The sbatch script a real deployment would hand to Slurm."""
        gpu_ids = env.get("CUDA_VISIBLE_DEVICES", "")
        gres = len([g for g in gpu_ids.split(",") if g]) if gpu_ids else 0
        lines = [
            "#!/bin/bash",
            f"#SBATCH --job-name=galaxy_{job.tool.tool_id}_{job.job_id}",
            f"#SBATCH --partition={self.partition}",
            f"#SBATCH --cpus-per-task={cpus}",
        ]
        if gres:
            lines.append(f"#SBATCH --gres=gpu:{gres}")
        for key in ("GALAXY_GPU_ENABLED", "CUDA_VISIBLE_DEVICES"):
            if key in env:
                lines.append(f"export {key}={env[key]}")
        lines.append(command)
        return "\n".join(lines) + "\n"

    def _requested_cpus(self, job: GalaxyJob) -> int:
        try:
            return max(1, int(job.params.get("threads", 1)))
        except (TypeError, ValueError):
            return 1

    # ------------------------------------------------------------------ #
    def submit(self, job: GalaxyJob, destination: Destination):
        """Queue the job with the DRM; returns the scheduler-side job."""
        if self.scheduler.node is not self.app.node:
            raise GalaxyError("DRM runner's scheduler must manage the app's node")
        cpus = self._requested_cpus(job)
        runner = self

        def body():
            launched = runner.launch(job, destination)
            script = runner.build_submit_script(
                job, launched.context.environment, job.command_line or "", cpus
            )
            runner.submissions.append(
                SubmitRecord(
                    galaxy_job_id=job.job_id, script=script, drm_job_id=drm_job.job_id
                )
            )
            runner.finish(launched)
            if job.exit_code not in (0, None):
                raise RuntimeError(f"galaxy job {job.job_id} failed")
            return job

        drm_job = self.scheduler.submit(
            name=f"galaxy_{job.tool.tool_id}_{job.job_id}",
            body=body,
            request=SlotRequest(cpu_slots=cpus),
        )
        return drm_job

    def queue_job(self, job: GalaxyJob, destination: Destination) -> GalaxyJob:
        """Submit the job and pump the scheduler once.

        When admission blocks (the node is out of CPU slots) the job
        stays queued with the DRM: the caller gets it back with its
        Galaxy state still NEW, and a later ``scheduler.pump()`` runs it.
        """
        self.submit(job, destination)
        self.scheduler.pump()
        return job

    def script_for(self, galaxy_job_id: int) -> str:
        """The submit script of a Galaxy job (after it ran)."""
        for record in self.submissions:
            if record.galaxy_job_id == galaxy_job_id:
                return record.script
        raise KeyError(f"no submission recorded for galaxy job {galaxy_job_id}")