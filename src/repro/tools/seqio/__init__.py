"""Sequence I/O: PAF records, sequence records and a FAST5-like signal container."""
