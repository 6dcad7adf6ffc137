"""Bioinformatics tools: the paper's two workloads, built from scratch.

* :mod:`repro.tools.racon` — a working POA-consensus polisher (the
  paper's Racon): pairwise and banded alignment, partial-order alignment
  graphs, windowed consensus, and a batched "CUDA" execution path through
  the GPU simulator.
* :mod:`repro.tools.bonito` — a working basecaller (the paper's Bonito):
  a k-mer pore model, squiggle simulation, GEMM-based frame scoring
  (the CNN analogue), CTC-style decoding, and CPU/GPU execution paths.
* :mod:`repro.tools.seqio` — sequence records, PAF, FAST5-like containers.
* :mod:`repro.tools.mapping` — a minimizer-seed read-to-backbone mapper
  producing the PAF records Racon consumes.
* :mod:`repro.tools.executors` — Galaxy tool executors binding both
  tools (and their perf models) into the mini-Galaxy runner layer.
"""
