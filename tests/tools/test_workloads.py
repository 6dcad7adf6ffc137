"""Dataset descriptors and synthetic data generators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.datasets import (
    ACINETOBACTER_PITTII,
    ALZHEIMERS_NFL,
    GIB,
    KLEBSIELLA_KSB2,
    PAPER_DATASETS,
    DatasetDescriptor,
)
from repro.workloads.generator import (
    corrupted_backbone,
    mutate_sequence,
    simulate_genome,
    simulate_read_set,
    simulate_reads,
)
from repro.tools.racon.alignment import identity


class TestDescriptors:
    def test_paper_sizes(self):
        assert ALZHEIMERS_NFL.size_bytes / GIB == pytest.approx(17.0)
        assert ACINETOBACTER_PITTII.size_bytes / GIB == pytest.approx(1.5)
        assert KLEBSIELLA_KSB2.size_bytes / GIB == pytest.approx(5.2)

    def test_registry(self):
        assert set(PAPER_DATASETS) == {
            "Alzheimers_NFL",
            "Acinetobacter_pittii",
            "Klebsiella_pneumoniae_KSB2",
        }

    def test_technologies(self):
        assert ALZHEIMERS_NFL.technology == "pacbio"
        assert ACINETOBACTER_PITTII.technology == "nanopore"
        with pytest.raises(ValueError):
            DatasetDescriptor("x", "sanger", 1, 1, 1, 1)


class TestGenomeSimulation:
    def test_length_and_alphabet(self):
        genome = simulate_genome(1234, seed=0)
        assert len(genome) == 1234
        assert set(genome) <= set("ACGT")

    def test_gc_content_controlled(self):
        low = simulate_genome(20_000, seed=1, gc_content=0.2)
        high = simulate_genome(20_000, seed=1, gc_content=0.8)
        gc = lambda s: sum(1 for b in s if b in "GC") / len(s)
        assert gc(low) == pytest.approx(0.2, abs=0.02)
        assert gc(high) == pytest.approx(0.8, abs=0.02)

    def test_deterministic_by_seed(self):
        assert simulate_genome(500, seed=7) == simulate_genome(500, seed=7)
        assert simulate_genome(500, seed=7) != simulate_genome(500, seed=8)

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_genome(0)
        with pytest.raises(ValueError):
            simulate_genome(10, gc_content=1.5)


class TestMutation:
    def test_zero_rates_identity(self):
        seq = simulate_genome(300, seed=2)
        assert mutate_sequence(seq, np.random.default_rng(0), 0, 0, 0) == seq

    def test_rates_roughly_respected(self):
        seq = simulate_genome(50_000, seed=3)
        mutated = mutate_sequence(
            np.random.default_rng(1), substitution_rate=0.0, insertion_rate=0.0,
            deletion_rate=0.1, sequence=seq,
        ) if False else mutate_sequence(seq, np.random.default_rng(1), 0.0, 0.0, 0.1)
        assert len(mutated) == pytest.approx(45_000, rel=0.02)

    @given(st.integers(0, 1000))
    @settings(max_examples=20)
    def test_identity_degrades_with_rates(self, seed):
        seq = simulate_genome(400, seed=seed)
        light = mutate_sequence(seq, np.random.default_rng(seed), 0.01, 0.0, 0.0)
        assert identity(light, seq) >= 0.95


class TestReadSimulation:
    def test_reads_within_genome(self):
        genome = simulate_genome(2000, seed=4)
        read_set = simulate_reads(genome, n_reads=20, mean_length=300, seed=5)
        for read in read_set.reads:
            assert 0 <= read.genome_start < read.genome_end <= len(genome)

    def test_coverage_targeted(self):
        read_set = simulate_read_set(
            genome_length=5000, coverage=20, mean_read_length=500, seed=7
        )
        assert read_set.mean_coverage() == pytest.approx(20.0, rel=0.25)

    def test_reverse_strand_fraction(self):
        genome = simulate_genome(3000, seed=8)
        read_set = simulate_reads(
            genome, n_reads=100, mean_length=200, seed=9, reverse_strand_fraction=0.5
        )
        minus = sum(1 for r in read_set.reads if r.strand == "-")
        assert 30 <= minus <= 70

    def test_corrupted_backbone_worse_than_reads(self):
        read_set = simulate_read_set(genome_length=1000, coverage=5, seed=10)
        draft = corrupted_backbone(read_set, seed=11)
        assert identity(draft.sequence, read_set.genome.sequence) < 0.97
        assert draft.name.endswith("_draft")

    def test_validation(self):
        genome = simulate_genome(100, seed=1)
        with pytest.raises(ValueError):
            simulate_reads(genome, n_reads=0, mean_length=10)
        with pytest.raises(ValueError):
            simulate_reads(genome, n_reads=1, mean_length=500)
