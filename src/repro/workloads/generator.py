"""Synthetic genome / long-read generation.

Reads carry PacBio/Nanopore-style errors (substitutions, insertions,
deletions) at configurable rates, and each read remembers its true origin
interval and strand (:class:`SimulatedRead`), which the tests hold the
:mod:`repro.tools.mapping` minimizer mapper's PAF records against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.tools.seqio.records import DNA_ALPHABET, SeqRecord, reverse_complement

_BASES = np.frombuffer(DNA_ALPHABET.encode(), dtype=np.uint8)


def simulate_genome(length: int, seed: int = 0) -> str:
    """A random genome of ``length`` bases, each base equally likely."""
    if length <= 0:
        raise ValueError("genome length must be positive")
    rng = np.random.default_rng(seed)
    indices = rng.choice(4, size=length, p=[0.25, 0.25, 0.25, 0.25])  # A C G T
    return _BASES[indices].tobytes().decode()


def mutate_sequence(
    sequence: str,
    rng: np.random.Generator,
    substitution_rate: float = 0.02,
    insertion_rate: float = 0.005,
    deletion_rate: float = 0.005,
) -> str:
    """Apply independent per-base errors; returns the corrupted sequence."""
    out: list[str] = []
    for base in sequence:
        r = rng.random()
        if r < deletion_rate:
            continue
        if r < deletion_rate + insertion_rate:
            out.append(DNA_ALPHABET[rng.integers(4)])
            out.append(base)
            continue
        if r < deletion_rate + insertion_rate + substitution_rate:
            choices = [b for b in DNA_ALPHABET if b != base]
            out.append(choices[rng.integers(3)])
            continue
        out.append(base)
    return "".join(out)


@dataclass
class SimulatedRead:
    """A read plus its ground-truth origin on the genome."""

    record: SeqRecord
    genome_start: int
    genome_end: int
    strand: str  # '+' or '-'


@dataclass
class ReadSet:
    """A genome and its reads, each with its true origin."""

    genome: SeqRecord
    reads: list[SimulatedRead] = field(default_factory=list)

    @property
    def records(self) -> list[SeqRecord]:
        """Just the read records."""
        return [r.record for r in self.reads]

    def mean_coverage(self) -> float:
        """Mean read coverage over the genome."""
        total = sum(r.genome_end - r.genome_start for r in self.reads)
        return total / max(1, len(self.genome))


def simulate_reads(
    genome: str,
    n_reads: int,
    mean_length: int,
    seed: int = 0,
    substitution_rate: float = 0.02,
    insertion_rate: float = 0.005,
    deletion_rate: float = 0.005,
    length_sd_fraction: float = 0.2,
    reverse_strand_fraction: float = 0.0,
    genome_name: str = "ref",
) -> ReadSet:
    """Draw error-bearing reads uniformly from ``genome``.

    ``reverse_strand_fraction`` controls how many reads come from the
    minus strand (Racon's windows handle both via the PAF strand field).
    """
    if n_reads <= 0:
        raise ValueError("n_reads must be positive")
    if mean_length <= 0 or mean_length > len(genome):
        raise ValueError("mean_length must be in (0, genome length]")
    rng = np.random.default_rng(seed)
    read_set = ReadSet(genome=SeqRecord(name=genome_name, sequence=genome))
    for i in range(n_reads):
        length = int(
            np.clip(
                rng.normal(mean_length, mean_length * length_sd_fraction),
                mean_length // 4,
                len(genome),
            )
        )
        start = int(rng.integers(0, len(genome) - length + 1))
        end = start + length
        fragment = genome[start:end]
        strand = "-" if rng.random() < reverse_strand_fraction else "+"
        observed = mutate_sequence(
            fragment if strand == "+" else reverse_complement(fragment),
            rng,
            substitution_rate=substitution_rate,
            insertion_rate=insertion_rate,
            deletion_rate=deletion_rate,
        )
        read_set.reads.append(
            SimulatedRead(
                record=SeqRecord(name=f"read_{i:05d}", sequence=observed),
                genome_start=start,
                genome_end=end,
                strand=strand,
            )
        )
    return read_set


def simulate_read_set(
    genome_length: int = 5_000,
    coverage: float = 20.0,
    mean_read_length: int = 500,
    seed: int = 0,
    **error_rates: float,
) -> ReadSet:
    """Convenience: genome + reads at a target coverage depth."""
    genome = simulate_genome(genome_length, seed=seed)
    n_reads = max(1, int(round(coverage * genome_length / mean_read_length)))
    return simulate_reads(
        genome,
        n_reads=n_reads,
        mean_length=mean_read_length,
        seed=seed + 1,
        **error_rates,
    )


def corrupted_backbone(read_set: ReadSet, seed: int = 99, error_scale: float = 2.0) -> SeqRecord:
    """A draft assembly backbone: the genome with amplified errors.

    Racon's input backbone comes from a fast assembler and is *less*
    accurate than the reads consensus will be; we model it by mutating
    the truth at ``error_scale`` times the default read error rates.
    """
    rng = np.random.default_rng(seed)
    draft = mutate_sequence(
        read_set.genome.sequence,
        rng,
        substitution_rate=0.02 * error_scale,
        insertion_rate=0.005 * error_scale,
        deletion_rate=0.005 * error_scale,
    )
    return SeqRecord(name=f"{read_set.genome.name}_draft", sequence=draft)
