"""Job runners: local (bare-metal), Docker, and Singularity.

Runners are where GYAN's changes land in the real Galaxy tree
(``lib/galaxy/jobs/runners/local.py`` and the container launch script).
Each runner here exposes the hook points the paper describes so the GYAN
layer (:mod:`repro.core`) can plug in:

* a ``gpu_mapper`` computes the job environment — ``GALAXY_GPU_ENABLED``
  and ``CUDA_VISIBLE_DEVICES`` — per the paper's Pseudocode 2;
* the container runners accept a GPU-flag provider that appends
  ``--gpus all`` / ``--nv`` to the assembled command;
* an optional usage monitor is started when a tool starts and stopped
  when it ends (the paper's §V-C hardware usage script).

With no hooks installed the runners behave like stock Galaxy: GPU tools
run their CPU arm and containers launch without GPU access.
"""
