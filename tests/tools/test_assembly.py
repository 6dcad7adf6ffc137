"""Greedy OLC assembler."""

import pytest

from repro.tools.assembly import GreedyAssembler, assemble_and_polish
from repro.tools.racon.alignment import identity
from repro.tools.seqio.records import SeqRecord
from repro.workloads.generator import simulate_genome, simulate_read_set


class TestOverlapDetection:
    def test_exact_suffix_prefix_overlap_found(self):
        genome = simulate_genome(600, seed=1)
        a = SeqRecord(name="a", sequence=genome[:400])
        b = SeqRecord(name="b", sequence=genome[250:600])
        assembler = GreedyAssembler()
        overlap = assembler.find_suffix_prefix_overlap(a, b)
        assert overlap is not None
        assert overlap.length == pytest.approx(150, abs=30)
        assert overlap.a_hang == pytest.approx(250, abs=30)

    def test_no_overlap_between_unrelated_reads(self):
        a = SeqRecord(name="a", sequence=simulate_genome(300, seed=2))
        b = SeqRecord(name="b", sequence=simulate_genome(300, seed=3))
        assert GreedyAssembler().find_suffix_prefix_overlap(a, b) is None

    def test_wrong_direction_rejected(self):
        """prefix(a)-suffix(b) is b->a, not a->b."""
        genome = simulate_genome(600, seed=4)
        a = SeqRecord(name="a", sequence=genome[250:600])
        b = SeqRecord(name="b", sequence=genome[:400])
        assert GreedyAssembler().find_suffix_prefix_overlap(a, b) is None

    def test_short_overlap_rejected(self):
        genome = simulate_genome(600, seed=5)
        a = SeqRecord(name="a", sequence=genome[:310])
        b = SeqRecord(name="b", sequence=genome[290:600])  # 20bp overlap
        assert GreedyAssembler().find_suffix_prefix_overlap(a, b) is None


class TestAssembly:
    def test_two_read_stitch(self):
        genome = simulate_genome(700, seed=6)
        reads = [
            SeqRecord(name="left", sequence=genome[:450]),
            SeqRecord(name="right", sequence=genome[300:700]),
        ]
        result = GreedyAssembler().assemble(reads)
        assert result.layout == ["left", "right"]
        assert identity(result.contig.sequence, genome) > 0.95

    def test_chain_of_clean_reads_reconstructs_genome(self):
        genome = simulate_genome(2000, seed=7)
        reads = [
            SeqRecord(name=f"r{i}", sequence=genome[start : start + 400])
            for i, start in enumerate(range(0, 1601, 200))
        ]
        result = GreedyAssembler().assemble(reads)
        assert len(result.contig) == pytest.approx(2000, abs=60)
        assert identity(result.contig.sequence, genome) > 0.97

    def test_noisy_reads_yield_draft_quality(self):
        read_set = simulate_read_set(
            genome_length=2500, coverage=15, mean_read_length=500, seed=41
        )
        result = GreedyAssembler().assemble(read_set.records)
        assert len(result.contig) > 0.85 * len(read_set.genome)
        assert identity(result.contig.sequence, read_set.genome.sequence) > 0.85

    def test_empty_and_duplicate_inputs_rejected(self):
        assembler = GreedyAssembler()
        with pytest.raises(ValueError):
            assembler.assemble([])
        dup = SeqRecord(name="x", sequence="ACGT" * 30)
        with pytest.raises(ValueError):
            assembler.assemble([dup, dup])

    def test_single_read_passthrough(self):
        read = SeqRecord(name="solo", sequence=simulate_genome(300, seed=8))
        result = GreedyAssembler().assemble([read])
        assert result.contig.sequence == read.sequence
        assert result.used_reads == 1


class TestFullPipeline:
    def test_assemble_then_polish_improves_draft(self):
        """The paper's §V-A pipeline end to end: draft from the
        assembler, polish with Racon, identity must not decrease."""
        read_set = simulate_read_set(
            genome_length=2500, coverage=15, mean_read_length=500, seed=42
        )
        truth = read_set.genome.sequence
        assembly, polish = assemble_and_polish(read_set.records)
        draft_identity = identity(assembly.contig.sequence, truth)
        polished_identity = identity(polish.polished.sequence, truth)
        assert draft_identity > 0.85
        assert polished_identity >= draft_identity
        assert polish.windows_polished > 0
