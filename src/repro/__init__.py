"""GYAN reproduction: GPU-aware computation mapping for Galaxy.

A from-scratch, fully offline reproduction of *GYAN: Accelerating
Bioinformatics Tools in Galaxy with GPU-Aware Computation Mapping*
(IPPS 2021): a miniature Galaxy execution core, a simulated NVIDIA GPU
substrate (NVML + nvidia-smi surfaces, kernel timing, NVProf-style
profiling), container runtime simulators, working Racon (POA consensus)
and Bonito (basecalling) implementations, and the GYAN layer itself —
GPU requirements in tool XML, dynamic CPU/GPU destination mapping,
container GPU flags, and the two multi-GPU allocation strategies.

Quick start::

    from repro import build_deployment, register_paper_tools

    deployment = build_deployment()          # paper testbed: 2x K80 dies
    register_paper_tools(deployment.app)
    job = deployment.run_tool("racon", {"threads": 4, "workload": "unit"})
    print(job.state, job.metrics.runtime_seconds, job.environment)
"""

from importlib import import_module

__version__ = "1.0.0"

__all__ = ["GyanDeployment", "build_deployment", "register_paper_tools", "__version__"]

#: The quick-start names and the modules that define them, resolved on
#: access (PEP 562): ``import repro`` itself loads no sub-module.  This
#: is the only lazy table in the tree — everything else is imported from
#: its defining module.
_DEFINED_IN = {
    "GyanDeployment": "repro.core.orchestrator",
    "build_deployment": "repro.core.orchestrator",
    "register_paper_tools": "repro.tools.executors",
}


def __getattr__(name: str):
    if name not in _DEFINED_IN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(_DEFINED_IN[name]), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_DEFINED_IN})
