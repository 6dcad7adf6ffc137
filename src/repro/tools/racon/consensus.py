"""The windowed Racon polishing pipeline (CPU path).

Mirrors Racon's structure: split the backbone into fixed-length windows,
project each mapped read onto the windows it overlaps (clipping the read
by linear coordinate interpolation — Racon uses the alignment, we use
the PAF interval, adequate at window granularity), build a POA per
window seeded with the backbone fragment, call the consensus, and stitch
the polished windows back together.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.tools.racon.poa import POAGraph
from repro.tools.seqio.paf import PafRecord
from repro.tools.seqio.records import SeqRecord, reverse_complement

#: Racon's default window length is 500 bases.
DEFAULT_WINDOW_LENGTH = 500
#: Fragments shorter than this fraction of their window are discarded
#: (they carry too little signal and slow the POA down) — Racon applies
#: an equivalent quality/length filter.
MIN_FRAGMENT_FRACTION = 0.02


@dataclass
class Window:
    """One backbone window and the read fragments assigned to it."""

    index: int
    start: int
    end: int
    backbone_fragment: str
    fragments: list[str] = field(default_factory=list)
    #: POA fusion weight per fragment (parallel to :attr:`fragments`);
    #: quality-weighted when the polisher is configured for it.
    weights: list[int] = field(default_factory=list)

    def fragment_weight(self, position: int) -> int:
        """Weight of fragment ``position`` (1 when weights are unused)."""
        if position < len(self.weights):
            return self.weights[position]
        return 1

    @property
    def length(self) -> int:
        """Window span on the backbone."""
        return self.end - self.start

    def workload_cells(self, banded: bool = False, band: int = 64) -> int:
        """Approximate DP cells the window costs (drives the GPU model)."""
        cells = 0
        for fragment in self.fragments:
            if banded:
                cells += len(fragment) * min(2 * band + 1, max(1, self.length))
            else:
                cells += len(fragment) * max(1, self.length)
        return cells


@dataclass
class PolishResult:
    """Outcome of one polishing run."""

    polished: SeqRecord
    windows_total: int
    windows_polished: int
    fragments_used: int
    fragments_dropped: int


class RaconPolisher:
    """Configurable Racon-style polisher.

    Parameters
    ----------
    window_length:
        Backbone window size (Racon default 500).
    banded:
        The paper's *banding approximation*.  In this reproduction the
        consensus itself is computed identically with or without banding
        (the adaptive band always covers window-scale indel drift); the
        flag changes the modelled device workload (see
        :meth:`Window.workload_cells`) and is threaded through to the
        perf model.
    """

    def __init__(
        self,
        window_length: int = DEFAULT_WINDOW_LENGTH,
        banded: bool = False,
        quality_threshold: float | None = None,
        weight_by_quality: bool = False,
    ) -> None:
        """See class docstring; quality handling mirrors real Racon:

        ``quality_threshold``
            Fragments whose mean Phred quality falls below this are
            dropped (Racon's ``-q``, default 10.0 there; ``None`` here
            disables the filter so quality-less FASTA inputs work).
        ``weight_by_quality``
            When set, each fragment's POA fusion weight scales with its
            mean quality (higher-confidence reads out-vote noisy ones).
        """
        if window_length <= 0:
            raise ValueError("window_length must be positive")
        self.window_length = window_length
        self.banded = banded
        self.quality_threshold = quality_threshold
        self.weight_by_quality = weight_by_quality

    # ------------------------------------------------------------------ #
    # window construction
    # ------------------------------------------------------------------ #
    def build_windows(
        self,
        backbone: SeqRecord,
        reads: list[SeqRecord],
        mappings: list[PafRecord],
    ) -> tuple[list[Window], int]:
        """Split the backbone and assign read fragments to windows.

        Returns (windows, dropped_fragment_count).
        """
        length = len(backbone)
        windows: list[Window] = []
        for index, start in enumerate(range(0, length, self.window_length)):
            end = min(length, start + self.window_length)
            windows.append(
                Window(
                    index=index,
                    start=start,
                    end=end,
                    backbone_fragment=backbone.sequence[start:end],
                )
            )
        reads_by_name = {read.name: read for read in reads}
        dropped = 0
        for mapping in mappings:
            read = reads_by_name.get(mapping.query_name)
            if read is None or mapping.target_name != backbone.name:
                dropped += 1
                continue
            sequence = read.sequence
            quality = read.quality
            if mapping.strand == "-":
                sequence = reverse_complement(sequence)
                quality = quality[::-1] if quality else None
            dropped += self._assign_fragments(windows, sequence, quality, mapping)
        return windows, dropped

    @staticmethod
    def _mean_quality(quality: str) -> float:
        return sum(ord(c) - 33 for c in quality) / len(quality) if quality else 0.0

    def _fragment_weight(self, quality: str | None) -> int:
        """POA fusion weight of a fragment from its quality string."""
        if not self.weight_by_quality or not quality:
            return 1
        # Q10 -> 1, Q20 -> 2, Q40 -> 4 (capped): confident reads out-vote.
        return max(1, min(4, int(self._mean_quality(quality) // 10)))

    def _assign_fragments(
        self,
        windows: list[Window],
        sequence: str,
        quality: str | None,
        mapping: PafRecord,
    ) -> int:
        """Clip one read onto every window it overlaps; returns drops."""
        tstart, tend = mapping.target_start, mapping.target_end
        qstart, qend = mapping.query_start, mapping.query_end
        tspan = max(1, tend - tstart)
        qspan = qend - qstart
        dropped = 0

        def read_pos(target_pos: int) -> int:
            scaled = qstart + (target_pos - tstart) * qspan / tspan
            return int(min(max(scaled, qstart), qend))

        first = tstart // self.window_length
        last = (tend - 1) // self.window_length if tend > tstart else first
        for wi in range(first, min(last + 1, len(windows))):
            window = windows[wi]
            clip_start = max(tstart, window.start)
            clip_end = min(tend, window.end)
            if clip_end <= clip_start:
                continue
            lo, hi = read_pos(clip_start), read_pos(clip_end)
            fragment = sequence[lo:hi]
            if len(fragment) < MIN_FRAGMENT_FRACTION * window.length:
                dropped += 1
                continue
            fragment_quality = quality[lo:hi] if quality else None
            if (
                self.quality_threshold is not None
                and fragment_quality
                and self._mean_quality(fragment_quality) < self.quality_threshold
            ):
                dropped += 1
                continue
            window.fragments.append(fragment)
            window.weights.append(self._fragment_weight(fragment_quality))
        return dropped

    # ------------------------------------------------------------------ #
    # per-window consensus
    # ------------------------------------------------------------------ #
    def polish_window(self, window: Window) -> str:
        """POA consensus of one window (backbone kept when unsupported)."""
        if not window.fragments or not window.backbone_fragment:
            return window.backbone_fragment
        graph = POAGraph(window.backbone_fragment)
        for position, fragment in enumerate(window.fragments):
            graph.add_sequence(fragment, weight=window.fragment_weight(position))
        return graph.consensus()

    # ------------------------------------------------------------------ #
    # full pipeline
    # ------------------------------------------------------------------ #
    def polish(
        self,
        backbone: SeqRecord,
        reads: list[SeqRecord],
        mappings: list[PafRecord],
        window_processor=None,
    ) -> PolishResult:
        """Polish ``backbone`` with ``reads`` mapped by ``mappings``.

        ``window_processor`` overrides per-window consensus computation —
        the CUDA batcher passes itself here so the GPU path shares all
        of the windowing logic.
        """
        windows, dropped = self.build_windows(backbone, reads, mappings)
        consensuses = (
            [self.polish_window(w) for w in windows]
            if window_processor is None
            else window_processor(windows, self)
        )
        polished_count = sum(1 for w in windows if w.fragments)
        used = sum(len(w.fragments) for w in windows)
        polished = SeqRecord(
            name=f"{backbone.name}_polished", sequence="".join(consensuses)
        )
        return PolishResult(
            polished=polished,
            windows_total=len(windows),
            windows_polished=polished_count,
            fragments_used=used,
            fragments_dropped=dropped,
        )

    def polish_rounds(
        self,
        backbone: SeqRecord,
        reads: list[SeqRecord],
        rounds: int = 2,
    ) -> list[PolishResult]:
        """Iterative polishing — how Racon is used in practice.

        Each round re-maps the reads against the previous round's output
        (the coordinates shift as indels are corrected) and polishes
        again; assemblies typically converge within 2-4 rounds.  Returns
        one :class:`PolishResult` per round, in order.
        """
        if rounds <= 0:
            raise ValueError("rounds must be positive")
        from repro.tools.mapping import MinimizerMapper

        results: list[PolishResult] = []
        current = backbone
        for round_index in range(rounds):
            mapper = MinimizerMapper(current, k=13, w=5)
            mappings = mapper.map_reads(reads)
            result = self.polish(current, reads, mappings)
            result.polished.name = f"{backbone.name}_round{round_index + 1}"
            results.append(result)
            current = result.polished
        return results
