"""GYAN's dynamic destination rule (paper §IV-A, Code 2, Challenge II).

The rule ("``dynamic_destination.py``" in the paper) runs when a job is
mapped: it reads the tool's compute requirement, probes GPU availability
with ``pynvml``, and returns either the ``local_gpu`` destination (also
setting the app-level ``GALAXY_GPU_ENABLED`` boolean to ``"true"``) or a
CPU destination — user-agnostically, so a GPU tool still runs when the
cluster has no free GPU.
"""

from __future__ import annotations

from repro.core.retry import DEFAULT_NVML_RETRY, retry_call
from repro.galaxy.app import GalaxyApp
from repro.galaxy.job import GalaxyJob
from repro.galaxy.job_conf import DynamicRuleRegistry
from repro.galaxy.params import GPU_ENABLED_ENV_VAR
from repro.gpusim.errors import NVMLError
from repro.gpusim.nvml import NvmlLibrary

#: Destination ids the rule resolves to; job_conf.xml must define them.
LOCAL_GPU_DESTINATION = "local_gpu"
LOCAL_CPU_DESTINATION = "local_cpu"
DOCKER_GPU_DESTINATION = "docker_gpu"
DOCKER_CPU_DESTINATION = "docker_cpu"


def _available_gpu_count(app: GalaxyApp) -> int:
    """The rule's ``pynvml`` probe, resilience-aware.

    On a resilient app (one with a health tracker), transient NVML errors
    retry under :data:`~repro.core.retry.DEFAULT_NVML_RETRY`
    (virtual-clock backoff); once the budget is exhausted the rule
    degrades to "no GPU available" and the job takes the CPU arm.
    Without a tracker the error propagates: the stock rule crashes the
    mapping, which is exactly the fragility the chaos comparison
    demonstrates.

    Quarantined devices do not count as available.
    """
    nvml = NvmlLibrary(app.gpu_host)
    nvml.nvmlInit()
    tracker = app.health_tracker
    if tracker is None:
        return nvml.nvmlDeviceGetCount()
    try:
        count = retry_call(
            app.node.clock, DEFAULT_NVML_RETRY, nvml.nvmlDeviceGetCount
        )
    except NVMLError as exc:
        if exc.transient:
            return 0
        raise
    now = app.node.clock.now
    return sum(1 for i in range(count) if not tracker.is_quarantined(str(i), now))


def gpu_destination_rule(job: GalaxyJob, app: GalaxyApp) -> str:
    """Map a job to ``local_gpu`` or ``local_cpu`` by tool need + availability.

    Mirrors the paper: "The job rule obtains the system GPU availability
    and the number of GPUs using the pynvml Python library.  If the
    tool's wrapper file has the compute requirement of type 'gpu' and if
    there is at least one GPU available, then the destination is
    configured to be 'local GPU'.  At the same time, a boolean
    environment variable called GALAXY_GPU_ENABLED is introduced."
    """
    gpu_available = False
    if job.tool.requires_gpu and app.gpu_host is not None:
        gpu_available = _available_gpu_count(app) > 0
    app.environment[GPU_ENABLED_ENV_VAR] = "true" if gpu_available else "false"
    return LOCAL_GPU_DESTINATION if gpu_available else LOCAL_CPU_DESTINATION


def docker_destination_rule(job: GalaxyJob, app: GalaxyApp) -> str:
    """Containerised variant: ``docker_gpu`` vs ``docker_cpu``."""
    gpu_available = False
    if job.tool.requires_gpu and app.gpu_host is not None:
        gpu_available = _available_gpu_count(app) > 0
    app.environment[GPU_ENABLED_ENV_VAR] = "true" if gpu_available else "false"
    return DOCKER_GPU_DESTINATION if gpu_available else DOCKER_CPU_DESTINATION


def register_gyan_rules(registry: DynamicRuleRegistry) -> None:
    """Install GYAN's rules under the names job_conf.xml references."""
    registry.register("gpu_destination", gpu_destination_rule)
    registry.register("docker_destination", docker_destination_rule)
