"""Pairwise alignment: correctness, banding equivalence, properties."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.tools.racon.alignment import (
    banded_alignment,
    edit_distance,
    global_alignment,
    identity,
)
from repro.workloads.generator import mutate_sequence, simulate_genome

dna = st.text(alphabet="ACGT", min_size=1, max_size=60)


class TestGlobalAlignment:
    def test_identical_sequences(self):
        result = global_alignment("ACGTACGT", "ACGTACGT")
        assert result.score == 8 * 3
        assert result.cigar == "8="

    def test_single_mismatch(self):
        result = global_alignment("ACGT", "ACTT")
        assert result.cigar == "2=1X1="
        assert result.score == 3 * 3 - 5

    def test_single_insertion(self):
        result = global_alignment("ACGGT", "ACGT")
        assert "I" in result.cigar
        assert result.query_aligned.replace("-", "") == "ACGGT"
        assert result.target_aligned.count("-") == 1

    def test_single_deletion(self):
        result = global_alignment("ACT", "ACGT")
        assert "D" in result.cigar
        assert result.query_aligned.count("-") == 1

    def test_empty_vs_nonempty(self):
        result = global_alignment("", "ACG")
        assert result.score == 3 * (-4)
        assert result.cigar == "3D"

    def test_alignment_columns_consistent(self):
        result = global_alignment("GATTACA", "GCATGCU".replace("U", "T"))
        assert len(result.query_aligned) == len(result.target_aligned)
        assert result.query_aligned.replace("-", "") == "GATTACA"

    @given(dna, dna)
    @settings(max_examples=40)
    def test_score_symmetric(self, a, b):
        """Match/mismatch/linear-gap NW is symmetric in its arguments."""
        assert global_alignment(a, b).score == global_alignment(b, a).score

    @given(dna)
    def test_self_alignment_perfect(self, seq):
        result = global_alignment(seq, seq)
        assert result.score == 3 * len(seq)
        assert result.query_aligned == result.target_aligned == seq


class TestBandedAlignment:
    def test_matches_full_dp_for_small_divergence(self):
        rng = np.random.default_rng(0)
        for seed in range(5):
            a = simulate_genome(300, seed=seed)
            b = mutate_sequence(a, rng, 0.05, 0.02, 0.02)
            full = global_alignment(a, b)
            banded = banded_alignment(a, b, band=48)
            assert banded.score == full.score

    def test_widens_band_for_length_difference(self):
        a = "ACGT" * 50
        b = "ACGT" * 10
        result = banded_alignment(a, b, band=8)
        assert result.score == global_alignment(a, b).score

    def test_invalid_band(self):
        with pytest.raises(ValueError):
            banded_alignment("ACG", "ACG", band=0)

    @given(dna, dna)
    @settings(max_examples=30)
    def test_banded_never_beats_full(self, a, b):
        """The band restricts the search space: score <= full DP score."""
        full = global_alignment(a, b).score
        banded = banded_alignment(a, b, band=16).score
        assert banded <= full


class TestEditDistanceAndIdentity:
    def test_known_distances(self):
        assert edit_distance("kitten".upper().replace("K", "G").replace("E", "A").replace("I", "C").replace("N", "T"),  # GCTTAT
                             "GCTTAT") == 0
        assert edit_distance("ACGT", "ACGT") == 0
        assert edit_distance("ACGT", "AGT") == 1
        assert edit_distance("ACGT", "TGCA") == 4  # no alignment helps
        assert edit_distance("GGATC", "GATTC") == 2

    def test_empty_cases(self):
        assert edit_distance("", "ACG") == 3
        assert edit_distance("ACG", "") == 3
        assert identity("", "") == 1.0

    @given(dna, dna)
    @settings(max_examples=40)
    def test_metric_properties(self, a, b):
        assert edit_distance(a, b) == edit_distance(b, a)
        assert edit_distance(a, a) == 0
        assert edit_distance(a, b) <= max(len(a), len(b))

    @given(dna, dna, dna)
    @settings(max_examples=25)
    def test_triangle_inequality(self, a, b, c):
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)

    @given(dna, dna)
    @settings(max_examples=40)
    def test_identity_bounds(self, a, b):
        assert 0.0 <= identity(a, b) <= 1.0
