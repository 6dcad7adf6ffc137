"""The end-to-end basecalling pipeline (CPU and device-accounted GPU).

Pipeline per read:

1. **Smooth** — denoising conv (im2col + GEMM);
2. **Segment** — split the smoothed signal into events at level changes
   (the pore's dwell boundaries);
3. **Score** — one GEMM matching every event against all k-mer current
   templates (:class:`~repro.tools.bonito.model.TemplateScorer`);
4. **Emit** — walk the event k-mer calls, collapsing duplicate
   consecutive k-mers and emitting one base per event (the CTC-collapse
   analogue).

The GPU path performs the *same* numerics (bit-identical output) while
charging the GEMM/transfer/synchronisation mix to the device model — the
call mix the paper's Fig. 6 hotspot chart shows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.gpusim.kernels import KernelLaunch, KernelTimingModel, MemcpyKind
from repro.tools.bonito.model import Conv1dLayer, TemplateScorer
from repro.tools.bonito.signal import PoreModel
from repro.tools.racon.alignment import identity
from repro.tools.seqio.records import SeqRecord, SignalRead

#: The transition detector is adaptive: the threshold is a multiple of
#: the robust noise estimate (MAD of the lag-2 differences of the
#: smoothed signal), floored so a noiseless signal still ignores float
#: fuzz.  A clean squiggle therefore catches even the closest k-mer
#: level transitions (the pore ladder's minimum gap is ~1 pA), while a
#: noisy one raises the bar to ~4 sigma and misses only near-coincident
#: levels — the realistic residual error of event-based basecalling.
#: With dwell ~8, smoothing and the lag-2 detector, a large share of the
#: lag-2 differences are boundary-influenced, so the noise scale is read
#: from a low quantile of |diff| rather than the median.  The multiplier
#: is calibrated on the default noise (1 pA): it lands the threshold
#: near 2 pA, where missed-boundary and false-boundary errors balance —
#: the Viterbi decoder's stay transitions absorb spurious splits cheaply,
#: so erring low is the better trade.
ADAPTIVE_NOISE_QUANTILE = 0.30
ADAPTIVE_THRESHOLD_MULTIPLIER = 3.5
MIN_STEP_THRESHOLD_PA = 0.6
#: Lag (samples) of the transition detector.
STEP_LAG = 2
#: Events shorter than this many samples are merged into neighbours.
MIN_EVENT_SAMPLES = 2


@dataclass
class BasecallResult:
    """Basecalls plus accounting for a batch of reads."""

    records: list[SeqRecord] = field(default_factory=list)
    total_flops: int = 0
    total_events: int = 0
    total_samples: int = 0
    identities: list[float] = field(default_factory=list)

    @property
    def mean_identity(self) -> float:
        """Mean basecall identity vs. ground truth (when truth known)."""
        if not self.identities:
            return 0.0
        return float(np.mean(self.identities))


class Basecaller:
    """Template-matching basecaller over a pore model.

    Parameters
    ----------
    pore:
        The pore model (must match the squiggle generator's).
    timing:
        Optional device timing model.  When given, the GEMM stages are
        charged to the simulated GPU (with host<->device transfers and
        synchronisation); when ``None``, the run is CPU-only.
    """

    def __init__(
        self,
        pore: PoreModel,
        timing: KernelTimingModel | None = None,
    ) -> None:
        self.pore = pore
        self.timing = timing
        self.smoother = Conv1dLayer.smoothing(window=3)
        self.scorer = TemplateScorer(pore)

    def _threshold_for(self, diff: np.ndarray) -> float:
        """Segmentation threshold, adaptive from the signal's noise."""
        if diff.size == 0:
            return MIN_STEP_THRESHOLD_PA
        scale = float(np.quantile(diff, ADAPTIVE_NOISE_QUANTILE))
        return max(ADAPTIVE_THRESHOLD_MULTIPLIER * scale, MIN_STEP_THRESHOLD_PA)

    # ------------------------------------------------------------------ #
    # stages
    # ------------------------------------------------------------------ #
    def segment(self, smoothed: np.ndarray) -> list[tuple[int, int]]:
        """Split a smoothed signal into (start, end) event intervals.

        A lag-``STEP_LAG`` absolute difference detects level transitions;
        within each supra-threshold run only the peak position becomes a
        boundary (a single dwell transition smeared by smoothing would
        otherwise yield several).
        """
        n = len(smoothed)
        if n == 0:
            return []
        if n <= STEP_LAG:
            return [(0, n)]
        diff = np.abs(smoothed[STEP_LAG:] - smoothed[:-STEP_LAG])
        above = diff > self._threshold_for(diff)
        boundaries: list[int] = []
        i = 0
        while i < len(above):
            if above[i]:
                j = i
                while j + 1 < len(above) and above[j + 1]:
                    j += 1
                peak = i + int(np.argmax(diff[i : j + 1]))
                boundaries.append(peak + STEP_LAG)  # after the jump
                i = j + 1
            else:
                i += 1
        events: list[tuple[int, int]] = []
        start = 0
        for boundary in boundaries:
            if boundary - start >= MIN_EVENT_SAMPLES:
                events.append((start, boundary))
                start = boundary
        if n - start >= MIN_EVENT_SAMPLES:
            events.append((start, n))
        elif events:
            events[-1] = (events[-1][0], n)
        return events

    def _emit(self, kmer_ids: np.ndarray) -> str:
        """Event k-mer calls -> sequence (collapse + centre emission).

        Each event's k-mer is centred on the base it calls (the squiggle
        generator assigns base *i* the level of ``seq[i-1 : i+2]`` for
        k=3), so after collapsing duplicate consecutive calls the centre
        bases spell the sequence directly.
        """
        if kmer_ids.size == 0:
            return ""
        bases: list[str] = []
        previous = -1
        for kid in kmer_ids.tolist():
            if kid != previous:
                bases.append(self.pore.center_base(kid))
                previous = kid
        return "".join(bases)

    def _viterbi(self, scores: np.ndarray) -> np.ndarray:
        """Context-constrained decode over the event/k-mer score matrix.

        Consecutive events' k-mers must overlap by k-1 bases (the pore
        advanced one base), may repeat (a boundary the segmenter split
        spuriously), or — rarely — jump arbitrarily (a missed event).
        The Viterbi DP over these transitions is what turns near-tie
        template scores into accurate calls; it is the classical HMM
        basecalling formulation, standing in for the CNN's learned
        temporal context.
        """
        n_events, n_states = scores.shape
        if n_events == 0:
            return np.empty(0, dtype=np.int64)
        k = self.pore.k
        suffix_size = 4 ** (k - 1)
        states = np.arange(n_states)
        # predecessors[m] = the 4 states p with p[1:] == m[:-1].
        predecessors = (
            np.arange(4)[None, :] * suffix_size + (states // 4)[:, None]
        )  # (states, 4)
        stay_penalty = np.float32(-1.0)
        jump_penalty = np.float32(-8.0)

        best = scores[0].astype(np.float32).copy()
        back = np.zeros((n_events, n_states), dtype=np.int64)
        back[0] = states
        for e in range(1, n_events):
            shift_scores = best[predecessors]  # (states, 4)
            shift_arg = np.argmax(shift_scores, axis=1)
            shift_best = shift_scores[states, shift_arg]
            shift_pred = predecessors[states, shift_arg]
            stay_best = best + stay_penalty
            jump_state = int(np.argmax(best))
            jump_best = best[jump_state] + jump_penalty

            candidate = shift_best
            pred = shift_pred
            use_stay = stay_best > candidate
            candidate = np.where(use_stay, stay_best, candidate)
            pred = np.where(use_stay, states, pred)
            use_jump = jump_best > candidate
            candidate = np.where(use_jump, jump_best, candidate)
            pred = np.where(use_jump, jump_state, pred)

            best = candidate + scores[e]
            back[e] = pred
        path = np.empty(n_events, dtype=np.int64)
        path[-1] = int(np.argmax(best))
        for e in range(n_events - 1, 0, -1):
            path[e - 1] = back[e, path[e]]
        return path

    def _charge_gemm(self, name: str, flops: int, in_bytes: float, out_bytes: float) -> None:
        """Account one GEMM stage on the device (GPU path only)."""
        if self.timing is None:
            return
        self.timing.memcpy(MemcpyKind.HOST_TO_DEVICE, in_bytes)
        self.timing.launch(
            KernelLaunch(
                name=name,
                grid_blocks=max(1, int(flops // (256 * 2048)) + 1),
                threads_per_block=256,
                flops=float(flops),
                bytes_read=in_bytes,
                bytes_written=out_bytes,
            )
        )
        self.timing.synchronize()
        self.timing.memcpy(MemcpyKind.DEVICE_TO_HOST, out_bytes)

    # ------------------------------------------------------------------ #
    # pipeline
    # ------------------------------------------------------------------ #
    def basecall_read(self, read: SignalRead) -> tuple[SeqRecord, int, int]:
        """Basecall one read; returns (record, flops, events)."""
        smoothed_matrix, conv_flops = self.smoother.forward(read.signal)
        smoothed = smoothed_matrix[:, 0]
        self._charge_gemm(
            "cudnn_conv1d_fwd",
            conv_flops,
            in_bytes=read.signal.nbytes,
            out_bytes=smoothed.nbytes,
        )
        events = self.segment(smoothed)
        if not events:
            return SeqRecord(name=read.read_id, sequence=""), conv_flops, 0
        # Smoothing smears STEP_LAG samples across each boundary; trim
        # event edges so the mean reflects the dwell plateau only.
        means = np.array(
            [
                smoothed[
                    min(s + STEP_LAG, e - 1) : max(e - STEP_LAG, s + 1)
                ].mean()
                if e - s > 2 * STEP_LAG
                else smoothed[s:e].mean()
                for s, e in events
            ],
            dtype=np.float32,
        )
        scores, gemm_flops = self.scorer.score(means)
        self._charge_gemm(
            "sgemm_template_match",
            gemm_flops,
            in_bytes=means.nbytes * 3,
            out_bytes=scores.nbytes,
        )
        kmer_ids = self._viterbi(scores)
        sequence = self._emit(kmer_ids)
        record = SeqRecord(name=read.read_id, sequence=sequence)
        return record, conv_flops + gemm_flops, len(events)

    def basecall(self, reads: list[SignalRead]) -> BasecallResult:
        """Basecall a batch; evaluates identity where truth is known."""
        result = BasecallResult()
        for read in reads:
            record, flops, events = self.basecall_read(read)
            result.records.append(record)
            result.total_flops += flops
            result.total_events += events
            result.total_samples += len(read)
            if read.true_sequence:
                result.identities.append(identity(record.sequence, read.true_sequence))
        return result
