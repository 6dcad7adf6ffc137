"""GYAN's dynamic destination rule (paper §IV-A, Code 2, Challenge II).

The rule ("``dynamic_destination.py``" in the paper) runs when a job is
mapped: it reads the tool's compute requirement, asks whether a GPU is
available, and returns either the GPU destination (also setting the
app-level ``GALAXY_GPU_ENABLED`` boolean to ``"true"``) or a CPU
destination — user-agnostically, so a GPU tool still runs when the
cluster has no free GPU.

The availability question goes to the deployment's
:class:`~repro.core.mapper.GpuComputationMapper`, which owns the one
``pynvml`` probe (its retry, circuit breaker, degrade-to-CPU and
same-instant count cache) and the one quarantine filter, so the rule
and the mapping step of the same job read the same view of the host.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING

from repro.galaxy.params import GPU_ENABLED_ENV_VAR

if TYPE_CHECKING:
    from repro.core.mapper import GpuComputationMapper
    from repro.galaxy.app import GalaxyApp
    from repro.galaxy.job import GalaxyJob
    from repro.galaxy.job_conf import DynamicRuleRegistry

#: Rule name (as job_conf.xml references it) -> the destination ids it
#: resolves to, GPU arm first.  job_conf.xml must define both; the
#: config analyzers read this table for the rules a stock deployment
#: registers and where each can send a job.
GYAN_RULES: dict[str, tuple[str, str]] = {
    "gpu_destination": ("local_gpu", "local_cpu"),
    "docker_destination": ("docker_gpu", "docker_cpu"),
}


def _rule(
    mapper: GpuComputationMapper,
    gpu_destination: str,
    cpu_destination: str,
    job: GalaxyJob,
    app: GalaxyApp,
) -> str:
    """One :data:`GYAN_RULES` row's rule, bound to ``mapper`` and its arms.

    Mirrors the paper: "The job rule obtains the system GPU availability
    and the number of GPUs using the pynvml Python library.  If the
    tool's wrapper file has the compute requirement of type 'gpu' and if
    there is at least one GPU available, then the destination is
    configured to be 'local GPU'.  At the same time, a boolean
    environment variable called GALAXY_GPU_ENABLED is introduced."
    """
    gpu_available = bool(job.tool.requires_gpu and mapper.available_gpu_count() > 0)
    app.environment[GPU_ENABLED_ENV_VAR] = "true" if gpu_available else "false"
    return gpu_destination if gpu_available else cpu_destination


def register_gyan_rules(
    registry: DynamicRuleRegistry, mapper: GpuComputationMapper
) -> None:
    """Install one rule per :data:`GYAN_RULES` row, each asking ``mapper``."""
    for name, arms in GYAN_RULES.items():
        registry.register(name, partial(_rule, mapper, *arms))
