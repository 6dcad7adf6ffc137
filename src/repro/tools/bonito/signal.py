"""Pore model and squiggle synthesis — the FAST5 dataset substitute.

A nanopore reports an ionic current whose level depends on the k bases
currently inside the pore.  :class:`PoreModel` assigns every k-mer a
distinct, well-separated current level (real pores: ~60-120 pA);
:class:`SquiggleSimulator` renders a sequence into a noisy signal with
per-base dwell-time variation.  Ground truth travels with each
:class:`~repro.tools.seqio.records.SignalRead` so basecall accuracy is
measurable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.tools.seqio.records import DNA_ALPHABET, SignalRead

_BASE_INDEX = {base: i for i, base in enumerate(DNA_ALPHABET)}


class PoreModel:
    """Current levels for all k-mers.

    Levels are an evenly spaced ladder over the pore's dynamic range,
    randomly permuted so that sequence-adjacent k-mers land far apart —
    maximising level-transition detectability, like a well-behaved real
    pore chemistry.
    """

    def __init__(
        self,
        k: int = 3,
        seed: int = 2021,
        level_min_pa: float = 60.0,
        level_max_pa: float = 120.0,
    ) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        self.k = k
        self.level_min_pa = level_min_pa
        self.level_max_pa = level_max_pa
        n = 4**k
        rng = np.random.default_rng(seed)
        ladder = np.linspace(level_min_pa, level_max_pa, n)
        self.levels = ladder[rng.permutation(n)].astype(np.float32)

    @property
    def n_kmers(self) -> int:
        """Number of distinct k-mers (4^k)."""
        return len(self.levels)

    def kmer_index(self, kmer: str) -> int:
        """Integer code of a k-mer string."""
        if len(kmer) != self.k:
            raise ValueError(f"expected a {self.k}-mer, got {kmer!r}")
        code = 0
        for base in kmer:
            code = code * 4 + _BASE_INDEX[base.upper()]
        return code

    def kmer_string(self, index: int) -> str:
        """k-mer string of an integer code."""
        if not 0 <= index < self.n_kmers:
            raise ValueError(f"k-mer index {index} out of range")
        bases = []
        for _ in range(self.k):
            bases.append(DNA_ALPHABET[index % 4])
            index //= 4
        return "".join(reversed(bases))

    def sequence_levels(self, sequence: str) -> np.ndarray:
        """Per-base levels: base i takes the level of its centred k-mer.

        The sequence is padded with 'A' context at both ends so every
        base has a level.
        """
        pad = self.k // 2
        padded = "A" * pad + sequence.upper() + "A" * (self.k - 1 - pad)
        codes = np.empty(len(sequence), dtype=np.int64)
        for i in range(len(sequence)):
            codes[i] = self.kmer_index(padded[i : i + self.k])
        return self.levels[codes]

    def center_base(self, index: int) -> str:
        """The centre base of a k-mer code (what an event calls)."""
        return self.kmer_string(index)[self.k // 2]


@dataclass
class SquiggleSimulator:
    """Renders sequences into noisy, dwell-varying current signals.

    Parameters
    ----------
    pore:
        The pore model supplying levels.
    samples_per_base:
        Mean dwell in samples (ONT R9 at 4 kHz / 450 b/s is ~8.9).
    dwell_jitter:
        Maximum +- variation of each base's dwell, in samples.
    noise_sd_pa:
        Gaussian current noise.
    """

    pore: PoreModel
    samples_per_base: int = 8
    dwell_jitter: int = 2
    noise_sd_pa: float = 1.0

    def __post_init__(self) -> None:
        if self.samples_per_base <= 0:
            raise ValueError("samples_per_base must be positive")
        if self.dwell_jitter >= self.samples_per_base:
            raise ValueError("dwell_jitter must be smaller than samples_per_base")

    def synthesize(self, sequence: str, seed: int = 0) -> np.ndarray:
        """The squiggle of one sequence."""
        if not sequence:
            return np.empty(0, dtype=np.float32)
        rng = np.random.default_rng(seed)
        levels = self.pore.sequence_levels(sequence)
        dwells = rng.integers(
            self.samples_per_base - self.dwell_jitter,
            self.samples_per_base + self.dwell_jitter + 1,
            size=len(sequence),
        )
        signal = np.repeat(levels, dwells).astype(np.float32)
        signal += rng.normal(0.0, self.noise_sd_pa, size=signal.shape).astype(
            np.float32
        )
        return signal

    def simulate_reads(
        self,
        genome: str,
        n_reads: int,
        mean_length: int,
        seed: int = 0,
    ) -> list[SignalRead]:
        """Draw reads from ``genome`` and render each into a SignalRead."""
        if n_reads <= 0:
            raise ValueError("n_reads must be positive")
        if mean_length <= 0 or mean_length > len(genome):
            raise ValueError("mean_length must be in (0, genome length]")
        rng = np.random.default_rng(seed)
        reads: list[SignalRead] = []
        for i in range(n_reads):
            length = int(
                np.clip(
                    rng.normal(mean_length, mean_length * 0.15),
                    max(self.pore.k + 1, mean_length // 4),
                    len(genome),
                )
            )
            start = int(rng.integers(0, len(genome) - length + 1))
            fragment = genome[start : start + length]
            reads.append(
                SignalRead(
                    read_id=f"squiggle_{i:05d}",
                    signal=self.synthesize(fragment, seed=seed + 1000 + i),
                    true_sequence=fragment,
                )
            )
        return reads
