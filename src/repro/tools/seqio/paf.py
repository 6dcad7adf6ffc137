"""PAF (Pairwise mApping Format) records.

Racon's command line takes reads, *mappings of reads to the backbone*
(typically minimap2 PAF output), and the backbone itself.  Our mapper
(:mod:`repro.tools.mapping`) emits these records in memory and the
consensus stage reads them; nothing here parses or writes PAF text.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PafRecord:
    """One PAF line: the mandatory columns the consensus stage reads
    (mapping quality is not modelled)."""

    query_name: str
    query_length: int
    query_start: int
    query_end: int
    strand: str  # '+' or '-'
    target_name: str
    target_length: int
    target_start: int
    target_end: int
    residue_matches: int
    alignment_block_length: int

    def __post_init__(self) -> None:
        if self.strand not in "+-":
            raise ValueError(f"strand must be '+' or '-', got {self.strand!r}")
        if not 0 <= self.query_start <= self.query_end <= self.query_length:
            raise ValueError(f"bad query interval on {self.query_name}")
        if not 0 <= self.target_start <= self.target_end <= self.target_length:
            raise ValueError(f"bad target interval on {self.query_name}")
