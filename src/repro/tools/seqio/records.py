"""Core sequence/signal record types."""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

DNA_ALPHABET = "ACGT"

_COMPLEMENT = str.maketrans("ACGTacgt", "TGCAtgca")


def reverse_complement(sequence: str) -> str:
    """Reverse complement of a DNA string (case-preserving)."""
    return sequence.translate(_COMPLEMENT)[::-1]


@dataclass
class SeqRecord:
    """A named nucleotide sequence, optionally with per-base qualities."""

    name: str
    sequence: str
    quality: str | None = None

    def __post_init__(self) -> None:
        if self.quality is not None and len(self.quality) != len(self.sequence):
            raise ValueError(
                f"{self.name}: quality length {len(self.quality)} != "
                f"sequence length {len(self.sequence)}"
            )

    def __len__(self) -> int:
        return len(self.sequence)


@dataclass
class SignalRead:
    """A raw nanopore read: the picoampere signal plus metadata.

    This is the FAST5-file analogue — Oxford Nanopore stores one signal
    array per read in HDF5 containers; we keep them in memory.  When the
    read was simulated, ``true_sequence`` carries the ground truth used
    for accuracy evaluation.
    """

    read_id: str
    signal: np.ndarray
    true_sequence: str | None = None
    #: MinION's sampling rate.
    sample_rate_hz: ClassVar[float] = 4000.0

    def __post_init__(self) -> None:
        self.signal = np.asarray(self.signal, dtype=np.float32)
        if self.signal.ndim != 1:
            raise ValueError("signal must be one-dimensional")

    def __len__(self) -> int:
        return int(self.signal.shape[0])
