"""Descriptors for the paper's evaluation datasets.

The descriptor carries the figures the performance models consume (size,
read counts, lengths); ``make_miniature`` produces an actually runnable
scaled-down instance with the same structure.
"""

from __future__ import annotations

from dataclasses import dataclass

GIB = 1024**3


@dataclass(frozen=True)
class DatasetDescriptor:
    """A sequencing dataset at paper scale.

    Attributes
    ----------
    name:
        Identifier used in figures and benchmark rows.
    technology:
        ``"pacbio"`` (Racon's input) or ``"nanopore"`` (Bonito's).
    size_bytes:
        On-disk size the paper quotes.
    n_reads / mean_read_length:
        Read statistics consistent with the size (estimated where the
        paper does not state them; signal data is ~10 bytes/base).
    reference_length:
        Approximate genome/transcriptome span the reads cover.
    """

    name: str
    technology: str
    size_bytes: int
    n_reads: int
    mean_read_length: int
    reference_length: int

    def __post_init__(self) -> None:
        if self.technology not in ("pacbio", "nanopore"):
            raise ValueError(f"unknown technology {self.technology!r}")


#: Paper §VI-A: "a 17 GB Alzheimers NFL Dataset, which contains the
#: polished sequencing results for the Alzheimer human brain
#: transcriptome" (PacBio IsoSeq).  Read stats estimated from IsoSeq NFL
#: library characteristics (~2-3 kb transcripts).
ALZHEIMERS_NFL = DatasetDescriptor(
    name="Alzheimers_NFL",
    technology="pacbio",
    size_bytes=17 * GIB,
    n_reads=6_000_000,
    mean_read_length=2_500,
    reference_length=90_000_000,
)

#: Paper §VI-A: Acinetobacter_pittii raw fast5, 1.5 GB (Monash dataset).
#: Fast5 signal is ~10 bytes/base at ~8-10 samples/base.
ACINETOBACTER_PITTII = DatasetDescriptor(
    name="Acinetobacter_pittii",
    technology="nanopore",
    size_bytes=int(1.5 * GIB),
    n_reads=20_000,
    mean_read_length=8_000,
    reference_length=4_000_000,
)

#: Paper §VI-A: Klebsiella_pneumoniae_KSB2 raw fast5, 5.2 GB — the paper
#: approximates its CPU basecalling as ~4x the smaller dataset's.
KLEBSIELLA_KSB2 = DatasetDescriptor(
    name="Klebsiella_pneumoniae_KSB2",
    technology="nanopore",
    size_bytes=int(5.2 * GIB),
    n_reads=70_000,
    mean_read_length=8_000,
    reference_length=5_500_000,
)

PAPER_DATASETS: dict[str, DatasetDescriptor] = {
    d.name: d for d in (ALZHEIMERS_NFL, ACINETOBACTER_PITTII, KLEBSIELLA_KSB2)
}
