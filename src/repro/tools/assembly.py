"""A miniature OLC (overlap-layout-consensus) assembler.

The paper's §V-A motivates Racon with the assembly pipeline: "An
assembler outputs long reference sequences for shorter read segments as
it predicts sources of these reads.  The assembler first constructs a
draft backbone sequence of the reference.  It then aligns the reads to
that backbone and corrects each position ..."  To exercise that full
pipeline on real (miniature) data, this module provides the missing
first stage: a greedy overlap-layout assembler in the spirit of miniasm —
all-vs-all minimizer overlaps, greedy non-branching extension, and a
draft backbone stitched from the layout path.

It is deliberately small (no transitive reduction, no unitig graph
cleaning, single contig target) but *real*: on simulated read sets it
reconstructs the genome to draft accuracy, which Racon then measurably
improves — the exact relationship the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.tools.mapping import MinimizerIndex, minimizers
from repro.tools.seqio.records import SeqRecord


@dataclass(frozen=True)
class Overlap:
    """A suffix-prefix overlap between two reads (forward strands)."""

    a_name: str
    b_name: str
    a_hang: int  # start of the overlap on read a
    length: int  # approximate overlap length
    shared_minimizers: int

    def extension(self, b_length: int) -> int:
        """New bases appending ``b`` contributes to the contig."""
        return b_length - self.length


@dataclass
class AssemblyResult:
    """Outcome of one assembly run."""

    contig: SeqRecord
    layout: list[str] = field(default_factory=list)
    used_reads: int = 0
    overlaps_considered: int = 0


class GreedyAssembler:
    """Greedy suffix-prefix assembly over minimizer overlaps."""

    #: Minimizer parameters for overlap detection.
    k = 13
    w = 5
    #: Smallest usable overlap length in bases.
    min_overlap = 40
    #: Minimum shared minimizers for a candidate overlap.
    min_shared = 3

    # ------------------------------------------------------------------ #
    # overlap detection
    # ------------------------------------------------------------------ #
    def find_suffix_prefix_overlap(
        self, a: SeqRecord, b: SeqRecord
    ) -> Overlap | None:
        """Best suffix(a)-prefix(b) overlap via minimizer diagonals."""
        index = MinimizerIndex.build(a, k=self.k, w=self.w)
        hits = index.seeds(b.sequence)
        if len(hits) < self.min_shared:
            return None
        # Diagonal d = a_pos - b_pos; suffix-prefix overlaps have d > 0
        # (b's start maps inside a) with overlap length = len(a) - d.
        from collections import Counter

        diagonals = Counter((apos - bpos) // 25 for bpos, apos in hits)
        best_bin, support = diagonals.most_common(1)[0]
        if support < self.min_shared:
            return None
        diagonal = best_bin * 25
        if diagonal <= 0:
            return None
        overlap_length = len(a) - diagonal
        if overlap_length < self.min_overlap or overlap_length > len(b):
            return None
        return Overlap(
            a_name=a.name,
            b_name=b.name,
            a_hang=diagonal,
            length=overlap_length,
            shared_minimizers=support,
        )

    def all_overlaps(self, reads: list[SeqRecord]) -> list[Overlap]:
        """All pairwise suffix-prefix overlaps above the thresholds.

        O(n^2) with minimizer pre-screening — adequate at miniature
        scale (the real pipeline would use an all-vs-all mapper).
        """
        # Pre-screen with a shared minimizer sketch per read.
        sketches = {
            read.name: {code for code, _ in minimizers(read.sequence, self.k, self.w)}
            for read in reads
        }
        overlaps: list[Overlap] = []
        for a in reads:
            for b in reads:
                if a.name == b.name:
                    continue
                if len(sketches[a.name] & sketches[b.name]) < self.min_shared:
                    continue
                overlap = self.find_suffix_prefix_overlap(a, b)
                if overlap is not None:
                    overlaps.append(overlap)
        return overlaps

    # ------------------------------------------------------------------ #
    # layout + stitch
    # ------------------------------------------------------------------ #
    def assemble(self, reads: list[SeqRecord]) -> AssemblyResult:
        """Greedy layout: start at the read with no good predecessor,
        repeatedly follow the best outgoing overlap, stitch the path."""
        if not reads:
            raise ValueError("no reads to assemble")
        by_name = {read.name: read for read in reads}
        if len(by_name) != len(reads):
            raise ValueError("duplicate read names")
        overlaps = self.all_overlaps(reads)
        # Greedy successor: among a read's outgoing overlaps, take the
        # one that EXTENDS the contig furthest (support already gated by
        # the detection thresholds); containments extend by <= 0 and are
        # skipped.
        best_out: dict[str, Overlap] = {}
        has_in: set[str] = set()
        for overlap in overlaps:
            if overlap.extension(len(by_name[overlap.b_name])) <= 0:
                continue
            current = best_out.get(overlap.a_name)
            if current is None or overlap.extension(
                len(by_name[overlap.b_name])
            ) > current.extension(len(by_name[current.b_name])):
                best_out[overlap.a_name] = overlap
        for overlap in best_out.values():
            has_in.add(overlap.b_name)

        # Candidate starts: reads nothing extends into.  Greedy chains
        # from different starts cover different genome spans; walk each
        # and keep the longest contig.
        starts = [r.name for r in reads if r.name not in has_in and r.name in best_out]
        if not starts:
            starts = [max(by_name, key=lambda name: len(by_name[name]))]

        best_contig = ""
        best_layout: list[str] = []
        for start in starts:
            layout = [start]
            visited = {start}
            contig = by_name[start].sequence
            cursor = start
            while cursor in best_out:
                overlap = best_out[cursor]
                nxt = overlap.b_name
                if nxt in visited:
                    break  # cycle guard
                contig += by_name[nxt].sequence[overlap.length :]
                layout.append(nxt)
                visited.add(nxt)
                cursor = nxt
            if len(contig) > len(best_contig):
                best_contig = contig
                best_layout = layout

        return AssemblyResult(
            contig=SeqRecord(name="contig_0", sequence=best_contig),
            layout=best_layout,
            used_reads=len(best_layout),
            overlaps_considered=len(overlaps),
        )


def assemble_and_polish(reads: list[SeqRecord]):
    """The §V-A pipeline on real data: assemble, map back, polish.

    Returns (draft AssemblyResult, polished PolishResult).
    """
    from repro.tools.mapping import MinimizerMapper
    from repro.tools.racon.consensus import RaconPolisher

    assembler = GreedyAssembler()
    assembly = assembler.assemble(reads)
    mapper = MinimizerMapper(assembly.contig, k=assembler.k, w=assembler.w)
    mappings = mapper.map_reads(reads)
    polisher = RaconPolisher(window_length=250)
    polish = polisher.polish(assembly.contig, reads, mappings)
    return assembly, polish
