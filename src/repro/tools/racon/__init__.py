"""Racon: windowed POA consensus polishing, CPU and (simulated) GPU.

Racon (Vaser et al. 2017) polishes a draft assembly: it splits the
backbone into windows, gathers the read fragments mapping into each
window, builds a partial-order alignment (POA) of the fragments, and
replaces the window with the POA consensus.  The GPU build offloads the
POA/consensus step to ClaraGenomics CUDA kernels (``generatePOAKernel``
and ``generateConsensusKernel`` in the paper's Fig. 4), batched by the
``--cudapoa-batches`` parameter.

This package implements the whole pipeline from scratch:

* :mod:`alignment` — global and banded pairwise alignment (the *banding
  approximation* of the paper's parameter sweeps);
* :mod:`poa` — partial-order alignment graphs with sequence-to-graph
  alignment and heaviest-bundle consensus;
* :mod:`consensus` — the windowed polishing pipeline (CPU path);
* :mod:`cuda` — the batched device path through the GPU simulator,
  producing *bit-identical* consensus while accounting time on the
  device model;
* :mod:`perf_model` — the calibrated paper-scale timing model behind
  Figs. 3 and 7 and the §VI-A breakdown.
"""
