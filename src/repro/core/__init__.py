"""GYAN: GPU-aware computation mapping for the mini-Galaxy.

This package is the paper's contribution, organised by its four
challenges (§III-A / §IV):

``requirements``  (Challenge I)
    Interpreting the new ``<requirement type="compute">gpu</requirement>``
    wrapper tag, whose ``version`` attribute carries requested GPU minor
    IDs.
``destination_rules``  (Challenge II)
    The dynamic job rule that maps a job to the ``local_gpu`` destination
    when the tool wants a GPU and ``pynvml`` reports one available, and
    falls back to CPU destinations user-agnostically otherwise — setting
    the ``GALAXY_GPU_ENABLED`` environment variable either way.
``container_gpu``  (Challenge III)
    The ``--gpus all`` / ``--nv`` flag providers for the container
    runners, plus the Singularity bind-mode fix.
``gpu_usage`` / ``allocation`` / ``mapper``  (Challenge IV)
    ``get_gpu_usage`` (Pseudocode 1: parse ``nvidia-smi -q -x``), the two
    device-allocation strategies (Process-ID and Process-Allocated-
    Memory), and the ``__command_line`` logic (Pseudocode 2) that exports
    ``CUDA_VISIBLE_DEVICES``.
``monitor``
    The per-second GPU hardware usage script of §V-C.
``health`` / ``retry``
    The degradation layer: device quarantine after repeated errors and
    bounded exponential backoff on the virtual clock, used by the mapper
    and runners to outlive injected GPU faults.
``orchestrator``
    A façade wiring a complete GYAN-enabled Galaxy deployment in one
    call — the public entry point examples and benchmarks use.
"""
