"""Sequence I/O: FASTA, FASTQ, PAF, and a FAST5-like signal container."""
