"""POA graph: structure invariants, alignment, consensus quality."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.tools.racon.alignment import identity
from repro.tools.racon.poa import POAGraph
from repro.workloads.generator import mutate_sequence, simulate_genome

dna = st.text(alphabet="ACGT", min_size=1, max_size=40)


class TestConstruction:
    def test_seed_chain(self):
        graph = POAGraph("ACGT")
        assert graph.topological_order() == [0, 1, 2, 3]
        assert graph.consensus() == "ACGT"  # the chain's edges spell the seed
        assert graph.sequences_added == 1

    def test_empty_seed_rejected(self):
        with pytest.raises(ValueError):
            POAGraph("")

    def test_topological_order_valid_for_chain(self):
        graph = POAGraph("ACGTT")
        order = graph.topological_order()
        assert order == [0, 1, 2, 3, 4]  # seed order
        assert graph.consensus() == "ACGTT"


class TestAlignAndFuse:
    def test_identical_sequence_reuses_all_nodes(self):
        graph = POAGraph("ACGTACGT")
        graph.add_sequence("ACGTACGT")
        assert len(graph.topological_order()) == 8  # no new nodes
        assert graph.sequences_added == 2

    def test_interior_mismatch_creates_branch(self):
        """An interior mismatch becomes an alternative node.  (A
        *terminal* mismatch would be soft-clipped by the local
        alignment instead — see test_terminal_mismatch_softclipped.)"""
        graph = POAGraph("ACGTACGT")
        graph.add_sequence("ACTTACGT")
        assert len(graph.topological_order()) == 9

    def test_terminal_mismatch_softclipped(self):
        """Local alignment clips low-scoring fragment ends rather than
        fusing them — the behaviour that keeps window-boundary slop out
        of the graph."""
        graph = POAGraph("ACGTACGT")
        graph.add_sequence("ACGTACGA")  # mismatch on the last base
        assert len(graph.topological_order()) == 8  # clipped, no branch node

    def test_mismatch_branch_reused_not_duplicated(self):
        graph = POAGraph("ACGTACGT")
        graph.add_sequence("ACTTACGT")
        nodes_after_first = len(graph.topological_order())
        graph.add_sequence("ACTTACGT")
        assert len(graph.topological_order()) == nodes_after_first

    def test_alignment_pairs_cover_sequence(self):
        graph = POAGraph("ACGTACGT")
        pairs = graph.align("ACGGTACG")
        consumed = [j for _, j in pairs if j is not None]
        assert consumed == list(range(8))

    def test_empty_sequence_noop(self):
        graph = POAGraph("ACGT")
        graph.add_sequence("")
        assert len(graph.topological_order()) == 4


class TestConsensus:
    def test_consensus_of_seed_is_seed(self):
        assert POAGraph("ACGTACGTAA").consensus() == "ACGTACGTAA"

    def test_majority_overrides_seed_errors(self):
        graph = POAGraph("ACGTACGT")
        for _ in range(5):
            graph.add_sequence("ACTTACGT")  # consistent mismatch at pos 2
        assert graph.consensus() == "ACTTACGT"

    def test_consensus_recovers_truth_from_noisy_reads(self):
        truth = simulate_genome(150, seed=3)
        rng = np.random.default_rng(7)
        graph = POAGraph(mutate_sequence(truth, rng, 0.05, 0.02, 0.02))
        for _ in range(12):
            graph.add_sequence(mutate_sequence(truth, rng, 0.03, 0.01, 0.01))
        assert identity(graph.consensus(), truth) >= 0.97

    def test_consensus_better_than_seed(self):
        truth = simulate_genome(120, seed=11)
        rng = np.random.default_rng(13)
        seed_seq = mutate_sequence(truth, rng, 0.08, 0.02, 0.02)
        graph = POAGraph(seed_seq)
        for _ in range(10):
            graph.add_sequence(mutate_sequence(truth, rng, 0.03, 0.01, 0.01))
        assert identity(graph.consensus(), truth) > identity(seed_seq, truth)


class TestDagInvariant:
    @given(
        seed=dna,
        others=st.lists(dna, min_size=1, max_size=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_graph_stays_acyclic_under_arbitrary_fusion(self, seed, others):
        """topological_order() raising would mean a cycle; it never may."""
        graph = POAGraph(seed)
        for sequence in others:
            graph.add_sequence(sequence)
            order = graph.topological_order()  # raises on cycle
            assert sorted(order) == list(range(len(order)))  # each node once

    @given(seed=dna, noise=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_fusing_mutations_keeps_dag_and_consensus_well_formed(self, seed, noise):
        rng = np.random.default_rng(noise)
        graph = POAGraph(seed)
        for _ in range(4):
            graph.add_sequence(mutate_sequence(seed, rng, 0.1, 0.05, 0.05))
        consensus = graph.consensus()
        assert consensus
        assert set(consensus) <= set("ACGT")
