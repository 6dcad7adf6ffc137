"""``build_param_dict`` — the backend-to-tool-developer bridge.

The paper (§IV-A): "the backend Python variables are exposed to the tool
developer with the dictionary data structure, which is the output of the
``build_param_dict`` function ... we exposed the ``GALAXY_GPU_ENABLED``
environment variable to the tool wrapper file with the insertion of a
dictionary entry", keyed ``__galaxy_gpu_enabled__``.

This module reproduces that function: user parameters (coerced to their
declared types), Galaxy's standard double-underscore variables, and
GYAN's new entry.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.galaxy.job import GalaxyJob

#: The environment variable GYAN introduces (paper §IV-A) ...
GPU_ENABLED_ENV_VAR = "GALAXY_GPU_ENABLED"
#: ... and the param-dict key it is exposed under to wrapper authors.
GPU_ENABLED_PARAM_KEY = "__galaxy_gpu_enabled__"


def build_param_dict(
    job: GalaxyJob,
    environment: Mapping[str, str] | None = None,
) -> dict[str, Any]:
    """Build the template namespace for a job's command block.

    Parameters
    ----------
    job:
        The job whose tool declares the parameters.
    environment:
        The job's process environment; ``GALAXY_GPU_ENABLED`` is read from
        here ("false" when absent — stock Galaxy behaviour).

    Returns
    -------
    dict
        Parameter names mapped to coerced values, declared-but-unsubmitted
        parameters filled from their defaults, plus the standard
        double-underscore entries including ``__galaxy_gpu_enabled__``.
    """
    environment = environment or {}
    param_dict: dict[str, Any] = {}

    for parameter in job.tool.inputs:
        raw = job.params.get(parameter.name)
        param_dict[parameter.name] = parameter.coerce(raw)
    # Params submitted without a declaration pass through verbatim
    # (Galaxy tolerates this for tests and API submissions).
    for name, value in job.params.items():
        param_dict.setdefault(name, value)

    param_dict["__tool_id__"] = job.tool.tool_id
    param_dict["__tool_version__"] = job.tool.version
    param_dict["__job_id__"] = job.job_id
    param_dict[GPU_ENABLED_PARAM_KEY] = environment.get(GPU_ENABLED_ENV_VAR, "false")
    return param_dict
