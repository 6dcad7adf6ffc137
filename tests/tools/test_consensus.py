"""Racon windowed polishing pipeline."""

import pytest

from repro.tools.racon.alignment import identity
from repro.tools.racon.consensus import RaconPolisher, Window
from repro.tools.seqio.paf import PafRecord
from repro.tools.seqio.records import SeqRecord


class TestWindowing:
    def test_windows_tile_backbone(self):
        polisher = RaconPolisher(window_length=100)
        backbone = SeqRecord(name="b", sequence="A" * 250)
        windows, _ = polisher.build_windows(backbone, [], [])
        assert [(w.start, w.end) for w in windows] == [(0, 100), (100, 200), (200, 250)]
        assert "".join(w.backbone_fragment for w in windows) == backbone.sequence

    def test_fragment_assignment_spans_windows(self):
        polisher = RaconPolisher(window_length=100)
        backbone = SeqRecord(name="b", sequence="ACGT" * 75)  # 300bp
        read = SeqRecord(name="r", sequence=backbone.sequence[50:250])
        paf = PafRecord(
            query_name="r",
            query_length=200,
            query_start=0,
            query_end=200,
            strand="+",
            target_name="b",
            target_length=300,
            target_start=50,
            target_end=250,
            residue_matches=200,
            alignment_block_length=200,
        )
        windows, dropped = polisher.build_windows(backbone, [read], [paf])
        assert dropped == 0
        assert [len(w.fragments) for w in windows] == [1, 1, 1]
        # middle window fully covered
        assert windows[1].fragments[0] == backbone.sequence[100:200]

    def test_reverse_strand_fragment_complemented(self):
        polisher = RaconPolisher(window_length=100)
        backbone = SeqRecord(name="b", sequence="ACGTT" * 20)
        from repro.tools.seqio.records import reverse_complement

        read = SeqRecord(name="r", sequence=reverse_complement(backbone.sequence))
        paf = PafRecord(
            query_name="r",
            query_length=100,
            query_start=0,
            query_end=100,
            strand="-",
            target_name="b",
            target_length=100,
            target_start=0,
            target_end=100,
            residue_matches=100,
            alignment_block_length=100,
        )
        windows, _ = polisher.build_windows(backbone, [read], [paf])
        assert windows[0].fragments[0] == backbone.sequence

    def test_foreign_mappings_dropped(self):
        polisher = RaconPolisher(window_length=100)
        backbone = SeqRecord(name="b", sequence="A" * 100)
        paf = PafRecord(
            query_name="ghost",
            query_length=50,
            query_start=0,
            query_end=50,
            strand="+",
            target_name="b",
            target_length=100,
            target_start=0,
            target_end=50,
            residue_matches=50,
            alignment_block_length=50,
        )
        _, dropped = polisher.build_windows(backbone, [], [paf])
        assert dropped == 1

    def test_window_coverage_and_cells(self):
        window = Window(index=0, start=0, end=100, backbone_fragment="A" * 100)
        window.fragments = ["C" * 100, "G" * 50]
        assert window.workload_cells(banded=False) == 100 * 100 + 50 * 100
        assert window.workload_cells(banded=True, band=10) == 100 * 21 + 50 * 21

    def test_invalid_window_length(self):
        with pytest.raises(ValueError):
            RaconPolisher(window_length=0)


class TestPolish:
    def test_improves_draft_identity(self, small_read_set, small_polish_inputs):
        backbone, reads, mappings = small_polish_inputs
        truth = small_read_set.genome.sequence
        result = RaconPolisher(window_length=200).polish(backbone, reads, mappings)
        assert identity(result.polished.sequence, truth) > identity(
            backbone.sequence, truth
        )
        assert result.windows_polished >= result.windows_total - 2
        assert result.fragments_used > 0

    def test_unsupported_windows_keep_backbone(self):
        polisher = RaconPolisher(window_length=50)
        backbone = SeqRecord(name="b", sequence="ACGT" * 25)
        result = polisher.polish(backbone, [], [])
        assert result.polished.sequence == backbone.sequence
        assert result.windows_polished == 0
        assert result.windows_polished == 0

    def test_polished_name_suffixed(self, small_polish_inputs):
        backbone, reads, mappings = small_polish_inputs
        result = RaconPolisher(window_length=200).polish(backbone, reads, mappings)
        assert result.polished.name.endswith("_polished")

    def test_custom_window_processor_used(self, small_polish_inputs):
        backbone, reads, mappings = small_polish_inputs
        calls = []

        def processor(windows, polisher):
            calls.append(len(windows))
            return [w.backbone_fragment for w in windows]

        result = RaconPolisher(window_length=200).polish(
            backbone, reads, mappings, window_processor=processor
        )
        assert calls and result.polished.sequence == backbone.sequence
