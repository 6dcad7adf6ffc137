"""A faithful miniature of the Galaxy framework's execution core.

Galaxy proper is a quarter-million-line web application; GYAN's diff
touches a thin, well-defined slice of it (paper §IV):

* the **tool wrapper XML** parser (``racon.xml`` + ``macros.xml``) where
  the new ``<requirement type="compute">gpu</requirement>`` tag lives;
* ``build_param_dict`` in *evaluation.py* — "a bridge between the Galaxy
  backend and the tool developer" — where ``__galaxy_gpu_enabled__``
  is injected;
* the **job configuration** (``job_conf.xml``) with its dynamic
  destination rules;
* the **runners** (*local.py* and the container launch path) where
  ``CUDA_VISIBLE_DEVICES`` is exported and ``--gpus all`` / ``--nv``
  appended;
* the **job lifecycle** the web UI observes.

This package rebuilds exactly that slice: XML-driven tools with Cheetah-
style command templates, a job_conf with pluggable dynamic rules, a job
state machine, histories/datasets, and local/docker/singularity runners
that execute registered Python *tool executors* against the simulated
node.  The GYAN enhancements themselves live in :mod:`repro.core` and
plug into the hooks this package exposes.
"""
