"""Bonito: a nanopore basecaller, CPU and (simulated) GPU.

Oxford Nanopore's Bonito converts raw pore current ("squiggles") into
nucleotide sequences with a convolutional network decoded CTC-style; its
GPU runtime is dominated by GEMM kernels (paper Fig. 6).  This package
implements a working basecaller over simulated squiggles:

* :mod:`signal` — a k-mer pore model and squiggle synthesis (the FAST5
  dataset substitute);
* :mod:`model` — conv/GEMM layers (im2col + matrix multiply), with an
  analytically constructed template-matching network so no training data
  is needed;
* :mod:`basecaller` — the end-to-end pipeline (segmentation, GEMM
  scoring, sequence emission), with identical CPU and GPU numerics and
  device-accounted GEMM time on the GPU path;
* :mod:`perf_model` — the calibrated paper-scale model behind Fig. 5
  (CPU > 210 h on the 1.5 GB dataset; GPU > 50x faster).
"""
