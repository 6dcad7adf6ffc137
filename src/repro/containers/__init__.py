"""Container-runtime substrate (Docker / Singularity simulators).

Challenge III of the paper is making Galaxy's container launch path
GPU-aware: the launch script assembles a ``docker run`` (or
``singularity exec``) command line, and GYAN appends ``--gpus all`` or
``--nv`` when the destination enabled GPUs.  The real daemons are not
available offline, so this package simulates the parts that matter:

* an image registry with size-based pull latency and a local cache,
* command-line assembly with full flag fidelity (the assembled argv is
  what the tests assert on),
* runtime constraints the paper calls out — ``--gpus`` requires
  NVIDIA-Docker; Singularity >= 3.1 rejects ``rw``/``ro`` bind options
  when used the way older Galaxy emitted them,
* a cold-start overhead model calibrated to the measured ~0.6 s (36 %)
  container launch cost of paper §VI-B.
"""
