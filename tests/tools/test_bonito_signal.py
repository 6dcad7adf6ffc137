"""Pore model and squiggle synthesis."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.tools.bonito.signal import PoreModel, SquiggleSimulator
from repro.workloads.generator import simulate_genome

dna = st.text(alphabet="ACGT", min_size=3, max_size=40)


class TestPoreModel:
    def test_level_count(self, pore_model):
        assert pore_model.n_kmers == 64
        assert len(pore_model.levels) == 64

    def test_levels_within_range(self, pore_model):
        assert pore_model.levels.min() >= pore_model.level_min_pa
        assert pore_model.levels.max() <= pore_model.level_max_pa

    def test_levels_distinct(self, pore_model):
        assert len(set(pore_model.levels.tolist())) == 64

    def test_kmer_index_roundtrip(self, pore_model):
        for index in range(64):
            assert pore_model.kmer_index(pore_model.kmer_string(index)) == index

    def test_kmer_index_encoding(self, pore_model):
        assert pore_model.kmer_index("AAA") == 0
        assert pore_model.kmer_index("AAC") == 1
        assert pore_model.kmer_index("TTT") == 63

    def test_center_base(self, pore_model):
        assert pore_model.center_base(pore_model.kmer_index("AGC")) == "G"

    def test_wrong_length_rejected(self, pore_model):
        with pytest.raises(ValueError):
            pore_model.kmer_index("AC")
        with pytest.raises(ValueError):
            pore_model.kmer_string(64)

    def test_sequence_levels_centered(self, pore_model):
        seq = "ACGTT"
        levels = pore_model.sequence_levels(seq)
        assert len(levels) == 5
        # base 1 ('C') sits in context A-C-G
        assert levels[1] == pore_model.levels[pore_model.kmer_index("ACG")]

    def test_deterministic_by_seed(self):
        assert (PoreModel(seed=5).levels == PoreModel(seed=5).levels).all()
        assert not (PoreModel(seed=5).levels == PoreModel(seed=6).levels).all()

    @given(dna)
    @settings(max_examples=30)
    def test_sequence_levels_length(self, seq):
        pore = PoreModel(k=3, seed=1)
        assert len(pore.sequence_levels(seq)) == len(seq)


class TestSquiggleSimulator:
    def test_length_scales_with_dwell(self, pore_model):
        simulator = SquiggleSimulator(pore_model, samples_per_base=8, dwell_jitter=0)
        signal = simulator.synthesize("ACGTACGT", seed=1)
        assert len(signal) == 8 * 8

    def test_dwell_jitter_varies_length(self, pore_model):
        simulator = SquiggleSimulator(pore_model, samples_per_base=8, dwell_jitter=2)
        lengths = {len(simulator.synthesize("ACGT" * 10, seed=s)) for s in range(5)}
        assert len(lengths) > 1
        for length in lengths:
            assert 6 * 40 <= length <= 10 * 40

    def test_clean_signal_matches_levels(self, pore_model):
        simulator = SquiggleSimulator(
            pore_model, samples_per_base=4, dwell_jitter=0, noise_sd_pa=0.0
        )
        signal = simulator.synthesize("ACG", seed=1)
        expected = np.repeat(pore_model.sequence_levels("ACG"), 4)
        assert np.allclose(signal, expected)

    def test_noise_added(self, pore_model):
        quiet = SquiggleSimulator(pore_model, noise_sd_pa=0.0).synthesize("ACGT", 1)
        noisy = SquiggleSimulator(pore_model, noise_sd_pa=2.0).synthesize("ACGT", 1)
        assert not np.allclose(quiet, noisy)

    def test_empty_sequence(self, pore_model):
        assert len(SquiggleSimulator(pore_model).synthesize("", 1)) == 0

    def test_parameter_validation(self, pore_model):
        with pytest.raises(ValueError):
            SquiggleSimulator(pore_model, samples_per_base=0)
        with pytest.raises(ValueError):
            SquiggleSimulator(pore_model, samples_per_base=4, dwell_jitter=4)

    def test_simulate_reads_carry_truth(self, pore_model):
        genome = simulate_genome(500, seed=1)
        simulator = SquiggleSimulator(pore_model)
        reads = simulator.simulate_reads(genome, n_reads=5, mean_length=100, seed=2)
        assert len(reads) == 5
        for read in reads:
            assert read.true_sequence in genome
            assert len(read.signal) > 0

    def test_simulate_reads_validation(self, pore_model):
        simulator = SquiggleSimulator(pore_model)
        with pytest.raises(ValueError):
            simulator.simulate_reads("ACGT" * 100, n_reads=0, mean_length=10)
        with pytest.raises(ValueError):
            simulator.simulate_reads("ACGT", n_reads=1, mean_length=100)
