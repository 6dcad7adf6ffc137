"""PAF records and sequence/signal records."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.tools.seqio.paf import PafRecord
from repro.tools.seqio.records import SeqRecord, SignalRead, reverse_complement

dna = st.text(alphabet="ACGT", min_size=0, max_size=200)


class TestSeqRecord:
    def test_length_and_gc(self):
        record = SeqRecord(name="r", sequence="GGCCAT")
        assert len(record) == 6

    def test_quality_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SeqRecord(name="r", sequence="ACGT", quality="II")

    @given(dna)
    def test_reverse_complement_involution(self, seq):
        assert reverse_complement(reverse_complement(seq)) == seq


class TestPaf:
    def make(self, **kwargs):
        defaults = dict(
            query_name="q",
            query_length=100,
            query_start=0,
            query_end=100,
            strand="+",
            target_name="t",
            target_length=1000,
            target_start=50,
            target_end=150,
            residue_matches=90,
            alignment_block_length=100,
        )
        defaults.update(kwargs)
        return PafRecord(**defaults)

    def test_validation(self):
        with pytest.raises(ValueError):
            self.make(strand="x")
        with pytest.raises(ValueError):
            self.make(query_start=50, query_end=10)
        with pytest.raises(ValueError):
            self.make(target_end=2000)


class TestSignalRead:
    def test_basic(self):
        read = SignalRead(read_id="r", signal=np.zeros(4000))
        assert len(read) == 4000

    def test_dtype_normalised(self):
        read = SignalRead(read_id="r", signal=[1, 2, 3])
        assert read.signal.dtype == np.float32

    def test_multidim_rejected(self):
        with pytest.raises(ValueError):
            SignalRead(read_id="r", signal=np.zeros((2, 2)))
