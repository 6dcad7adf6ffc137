"""The GPU hardware usage script (paper §V-C).

"This script obtains the GPU utilization, GPU memory utilization, and
PCIe link generation information for every second, including minima,
maxima, and average.  It is executed when a job is submitted and stopped
when a job is either killed or stops.  Whenever it stops, a
post-processing function is executed, and it generates .csv files and
other log and statistic files."

The reproduction samples on the *virtual* clock, one tick every
:data:`INTERVAL` (1 s), and its Python work and memory follow device
state changes, not simulated seconds.  The monitor registers a single
*span listener* on the clock: between two callback firings the simulated
device state cannot change, so every periodic tick inside a quiescent
span observes the same values.  A session stores

* its tick instants as the start instant, one walk ``(first due,
  count)`` and an optional stop instant — every periodic tick continues
  the single ``t += 1.0`` float walk from ``start + 1.0``;
* per device, a run table (:class:`DeviceSeries`): one ``(util, mem,
  fb, pcie)`` entry and a length per run of identical samples, with
  min/max/sum accumulators streamed along the way.

Below 2**53 s (the clock's horizon) one second is a whole number of ulps
of every walk value of at least 1 s, so the walk only rounds where it
crosses into the next binade; :func:`exact_steps` counts the exact steps
up to there.  :func:`walk_ticks` uses it to count a span's ticks, so a
quiescent span costs the same however many ticks it holds, and the
count, last tick and next due instant are bit-identical to the naive
loop; the energy meter walks its trapezoid by the same rule.  Readers
expand on demand: ``np.add.accumulate`` adds strictly left to right, so
it replays the walk, and ``np.repeat`` expands runs.
``session.samples`` is a lazy sequence of :class:`UsageSample` objects;
see ``docs/performance.md``.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, Sequence

import numpy as np

from repro.galaxy.job import GalaxyJob
from repro.gpusim.clock import HORIZON
from repro.gpusim.host import GPUHost
from repro.hotpath import hot_path

#: Rows per chunk emitted by the buffered CSV writer.  Large enough to
#: amortise the join/write per chunk, small enough to keep the streaming
#: path's working set bounded (~1 MiB of text at typical row widths).
_CSV_CHUNK_ROWS = 8192

#: Seconds between periodic ticks: the paper's script samples "for every
#: second".  :func:`exact_steps` relies on it being exactly 1 s.
INTERVAL = 1.0


def exact_steps(value: float) -> int:
    """How many ``value += 1.0`` in a row stay exact inside ``value``'s binade.

    ``value`` in ``[2**(e-1), 2**e)`` is a multiple of its ulp ``2**(e-53)``,
    and so is one second while the ulp is at most 1 s (``value < 2**53``).
    Every ``value + k`` below the binade's top ``2**e`` is then a
    representable multiple of the ulp, so the first ``k`` additions are
    exact for every ``k < 2**e - value``; ``2**e - value`` is itself exact
    (Sterbenz).  Zero below 1 s, where no whole second fits below the top.
    """
    if not 1.0 <= value < HORIZON:
        return 0
    return math.ceil(math.ldexp(1.0, math.frexp(value)[1]) - value) - 1


def walk_ticks(due: float, end: float, closed: bool) -> tuple[int, float, float]:
    """Count the walk ``due, due + 1.0, …`` up to ``end`` (below 2**53 s).

    Returns ``(count, last, next_due)`` exactly as the loop ``while due
    <= end: last = due; due += 1.0`` leaves them (``<`` when the span is
    open at ``end``); ``last`` is NaN when nothing is due.  Inside a
    binade the walk is the progression ``due + k`` (:func:`exact_steps`),
    and ``end - due`` is exact wherever it can bound it: a short span is
    one exact subtraction and a long one a single step per binade.
    """
    count = 0
    last = math.nan
    while due < end or (closed and due == end):
        steps = exact_steps(due)
        if steps:
            gap = end - due
            steps = min(steps, math.floor(gap) if closed else math.ceil(gap) - 1)
            due += steps
        count += steps + 1
        last = due
        due += INTERVAL
    return count, last, due


@dataclass(frozen=True)
class UsageSample:
    """One per-second observation of one device."""

    time: float
    device_index: int
    gpu_utilization: float
    memory_utilization: float
    fb_used_mib: int
    pcie_generation: int


@dataclass(frozen=True)
class UsageStatistics:
    """Post-processed min/max/avg for one device over one job."""

    device_index: int
    samples: int
    gpu_util_min: float
    gpu_util_max: float
    gpu_util_avg: float
    mem_util_min: float
    mem_util_max: float
    mem_util_avg: float
    fb_used_min: int
    fb_used_max: int
    fb_used_avg: float


class DeviceSeries:
    """One device's telemetry in one session: a run table plus stats.

    Run ``r`` is ``run_lens[r]`` consecutive identical observations
    ``(run_util[r], run_mem[r], run_fb[r], run_pcie[r])``; a quiescent
    span extends the last run or opens one, in O(1) however many ticks
    it holds.  ``sum(run_lens) == len(self)`` always.
    """

    __slots__ = (
        "device_index",
        "run_util",
        "run_mem",
        "run_fb",
        "run_pcie",
        "run_lens",
        "count",
        "util_min",
        "util_max",
        "util_sum",
        "mem_min",
        "mem_max",
        "mem_sum",
        "fb_min",
        "fb_max",
        "fb_sum",
    )

    def __init__(self, device_index: int) -> None:
        self.device_index = device_index
        self.run_util = array("d")
        self.run_mem = array("d")
        self.run_fb = array("q")
        self.run_pcie = array("q")
        self.run_lens = array("q")
        self.count = 0
        self.util_min = float("inf")
        self.util_max = float("-inf")
        self.util_sum = 0.0
        self.mem_min = float("inf")
        self.mem_max = float("-inf")
        self.mem_sum = 0.0
        self.fb_min = 0
        self.fb_max = 0
        self.fb_sum = 0

    def push(self, util: float, mem: float, fb: int, pcie: int, n: int) -> None:
        """Record ``n`` identical observations."""
        if (
            self.run_lens
            and self.run_util[-1] == util
            and self.run_mem[-1] == mem
            and self.run_fb[-1] == fb
            and self.run_pcie[-1] == pcie
        ):
            self.run_lens[-1] += n
        else:
            self.run_util.append(util)
            self.run_mem.append(mem)
            self.run_fb.append(fb)
            self.run_pcie.append(pcie)
            self.run_lens.append(n)
        first = self.count == 0
        self.count += n
        if util < self.util_min:
            self.util_min = util
        if util > self.util_max:
            self.util_max = util
        self.util_sum += util * n
        if mem < self.mem_min:
            self.mem_min = mem
        if mem > self.mem_max:
            self.mem_max = mem
        self.mem_sum += mem * n
        if first or fb < self.fb_min:
            self.fb_min = fb
        if first or fb > self.fb_max:
            self.fb_max = fb
        self.fb_sum += fb * n

    def utilization(self) -> np.ndarray:
        """Per-tick SM utilisation, expanded from the run table.

        The buffer views die with this call, so the series can keep
        growing after a reading.
        """
        return np.frombuffer(self.run_util).repeat(np.frombuffer(self.run_lens, dtype=np.int64))

    def statistics(self) -> UsageStatistics | None:
        """The streamed min/max/avg, or ``None`` when nothing was sampled."""
        count = self.count
        if count == 0:
            return None
        return UsageStatistics(
            device_index=self.device_index,
            samples=count,
            gpu_util_min=self.util_min,
            gpu_util_max=self.util_max,
            gpu_util_avg=self.util_sum / count,
            mem_util_min=self.mem_min,
            mem_util_max=self.mem_max,
            mem_util_avg=self.mem_sum / count,
            fb_used_min=self.fb_min,
            fb_used_max=self.fb_max,
            fb_used_avg=self.fb_sum / count,
        )


class SampleView(Sequence[UsageSample]):
    """Read-only sequence view materialising :class:`UsageSample` lazily.

    Sample ``i`` is tick ``i // ndev`` of device column ``i % ndev`` —
    every device is sampled at every tick, devices in host order.  The
    tick instants are expanded and each column's cumulative run lengths
    built once per view (again only when the session has grown), and a
    sample's run is found by ``bisect``.
    """

    __slots__ = ("_session", "_built_for", "_times", "_run_ends")

    def __init__(self, session: MonitoredJob) -> None:
        self._session = session
        self._built_for = -1
        self._times = array("d")
        self._run_ends: list[list[int]] = []

    def __len__(self) -> int:
        return self._session.sample_count

    def __getitem__(self, index):
        total = len(self)
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(total))]
        if index < 0:
            index += total
        if not 0 <= index < total:
            raise IndexError("sample index out of range")
        session = self._session
        if self._built_for != total:
            self._times = session.times
            self._run_ends = [list(accumulate(s.run_lens)) for s in session.series]
            self._built_for = total
        tick, column = divmod(index, len(session.series))
        series = session.series[column]
        run = bisect_right(self._run_ends[column], tick)
        return UsageSample(
            time=self._times[tick],
            device_index=series.device_index,
            gpu_utilization=series.run_util[run],
            memory_utilization=series.run_mem[run],
            fb_used_mib=series.run_fb[run],
            pcie_generation=series.run_pcie[run],
        )


class MonitoredJob:
    """Per-job sampling session.

    Tick instants are the start instant, the walk ``first_due, first_due
    + 1.0, …`` of ``walk_len`` periodic ticks, and ``stopped_at``
    when :meth:`GPUUsageMonitor.stop` took a final sample; ``times``
    expands them.  ``series[j]`` holds the j-th host device's run table,
    and ``samples`` the flat list of :class:`UsageSample` as a lazy view.
    """

    __slots__ = (
        "job_id",
        "started_at",
        "first_due",
        "walk_len",
        "next_due",
        "last_time",
        "stopped_at",
        "series",
        "stopped",
        "statistics",
    )

    def __init__(
        self, job_id: int, started_at: float, device_indices: Sequence[int]
    ) -> None:
        self.job_id = job_id
        self.started_at = started_at
        self.first_due = started_at + INTERVAL
        self.walk_len = 0
        #: Next periodic tick due and the most recent tick's instant
        #: (kept by the monitor).
        self.next_due = self.first_due
        self.last_time = started_at
        self.stopped_at: float | None = None
        self.series = [DeviceSeries(index) for index in device_indices]
        self.stopped = False
        self.statistics: list[UsageStatistics] = []

    @property
    def tick_count(self) -> int:
        """Ticks taken so far: start, periodic ticks, stop."""
        return 1 + self.walk_len + (self.stopped_at is not None)

    @property
    def sample_count(self) -> int:
        """Samples taken so far, one per device per tick (O(1))."""
        return self.tick_count * len(self.series)

    @property
    def times(self) -> array:
        """Every tick instant, expanded by replaying the walk."""
        times = array("d", (INTERVAL,)) * self.tick_count
        times[0] = self.started_at
        if self.stopped_at is not None:
            times[-1] = self.stopped_at
        if self.walk_len:
            times[1] = self.first_due
            walk = np.frombuffer(times)[1 : 1 + self.walk_len]
            np.add.accumulate(walk, out=walk)
        return times

    @property
    def samples(self) -> SampleView:
        """Chronological samples (devices interleaved per tick)."""
        return SampleView(self)

    def device_series(self, device_index: int) -> DeviceSeries | None:
        """The run table of one device (None for unknown devices)."""
        for series in self.series:
            if series.device_index == device_index:
                return series
        return None


class GPUUsageMonitor:
    """Chronological per-second GPU telemetry, with CSV post-processing.

    Implements the runner's :class:`~repro.galaxy.runners.base.UsageMonitor`
    protocol.  Several jobs may be monitored concurrently (multi-GPU
    cases); each keeps its own session.

    One span listener per monitor fans out to every live session —
    there is no per-session timer chain, and a stopped session can never
    receive a late tick (it is dropped from the live set synchronously
    in :meth:`stop`).
    """

    def __init__(self, host: GPUHost) -> None:
        self.host = host
        self.sessions: dict[int, MonitoredJob] = {}
        self._live: dict[int, MonitoredJob] = {}
        self._listening = False

    # ------------------------------------------------------------------ #
    # UsageMonitor protocol
    # ------------------------------------------------------------------ #
    @hot_path
    def start(self, job: GalaxyJob) -> None:
        """Begin sampling for ``job`` (called at tool-execution start)."""
        session = MonitoredJob(
            job_id=job.job_id,
            started_at=self.host.clock.now,
            device_indices=[d.minor_number for d in self.host.devices],
        )
        self.sessions[job.job_id] = session
        self._live[job.job_id] = session
        self._sample(session, 1)
        if not self._listening:
            self.host.clock.add_span_listener(self._on_span)
            self._listening = True

    @hot_path
    def stop(self, job: GalaxyJob) -> None:
        """Stop sampling and run the post-processing step."""
        session = self.sessions.get(job.job_id)
        if session is None or session.stopped:
            return
        # Take a final sample at the stop instant (unless a periodic tick
        # already sampled this exact instant), then post-process.
        now = self.host.clock.now
        if session.last_time < now:
            session.stopped_at = session.last_time = now
            self._sample(session, 1)
        session.stopped = True
        del self._live[job.job_id]
        if not self._live and self._listening:
            self.host.clock.remove_span_listener(self._on_span)
            self._listening = False
        session.statistics = self._post_process(session)

    # ------------------------------------------------------------------ #
    # sampling machinery
    # ------------------------------------------------------------------ #
    @hot_path
    def _on_span(self, start: float, end: float, closed: bool) -> None:
        """Sample every live session over a quiescent clock span.

        The simulated device state is constant over ``(start, end)`` (the
        clock fires this between callbacks), so all periodic ticks due in
        the span observe identical values: one run per device.
        ``closed`` spans include their ``end`` instant; open spans precede
        a callback at ``end`` and must leave that instant to a later
        span, after the callback has mutated state.
        """
        for session in self._live.values():
            due = session.next_due
            if due > end or (due == end and not closed):
                continue
            count, session.last_time, session.next_due = walk_ticks(due, end, closed)
            session.walk_len += count
            self._sample(session, count)

    def _sample(self, session: MonitoredJob, n: int) -> None:
        """Record ``n`` ticks' observations of every device, as it is now."""
        for series, device in zip(session.series, self.host.devices, strict=True):
            series.push(
                device.sm_utilization,
                device.mem_utilization,
                device.fb_used_mib,
                device.pcie_generation_current,
                n,
            )

    # ------------------------------------------------------------------ #
    # post-processing
    # ------------------------------------------------------------------ #
    def _post_process(self, session: MonitoredJob) -> list[UsageStatistics]:
        stats: list[UsageStatistics] = []
        for series in session.series:
            stat = series.statistics()
            if stat is not None:
                stats.append(stat)
        return stats

    def session_for(self, job_id: int) -> MonitoredJob:
        """The sampling session of a (possibly finished) job."""
        return self.sessions[job_id]

    @hot_path
    def to_csv(self, job_id: int) -> str:
        """The chronological .csv the paper's script writes per job.

        Rendered run-aware: each run's column suffix is formatted *once*
        (see :class:`DeviceSeries`) and each timestamp once per tick,
        shared across devices.  Per row, only two list appends remain.
        Output is byte-identical to the naive per-row formatting.
        """
        return "".join(self._csv_chunks(self.session_for(job_id)))

    def write_csv(self, job_id: int, fileobj) -> int:
        """Stream the CSV to ``fileobj`` in bounded chunks.

        The buffered sibling of :meth:`to_csv` for the dump-to-disk
        path: the full document (tens of MiB for a long job) is never
        materialised.  Returns the number of characters written.
        """
        written = 0
        for chunk in self._csv_chunks(self.session_for(job_id)):
            fileobj.write(chunk)
            written += len(chunk)
        return written

    def _csv_chunks(self, session: MonitoredJob) -> Iterator[str]:
        """The CSV document as a header chunk plus bounded row chunks."""
        yield (
            "time,device,gpu_utilization,memory_utilization,fb_used_mib,pcie_generation\n"
        )
        # One timestamp string per tick (shared by every device's row)…
        time_strs = [f"{t:.3f}" for t in session.times]
        count = len(time_strs)
        # …and one column-suffix string per *run*, expanded by reference.
        suffix_columns: list[list[str]] = []
        for series in session.series:
            suffixes: list[str] = []
            for util, mem, fb, pcie, run in zip(
                series.run_util, series.run_mem, series.run_fb,
                series.run_pcie, series.run_lens,
            ):
                suffix = f",{series.device_index},{util:.1f},{mem:.1f},{fb},{pcie}\n"
                suffixes.extend([suffix] * run)
            suffix_columns.append(suffixes)
        for base in range(0, count, _CSV_CHUNK_ROWS):
            parts: list[str] = []
            for tick in range(base, min(base + _CSV_CHUNK_ROWS, count)):
                stamp = time_strs[tick]
                for suffixes in suffix_columns:
                    parts.append(stamp)
                    parts.append(suffixes[tick])
            yield "".join(parts)

    def dump(self, job_id: int, directory) -> list[str]:
        """Write the per-job files the paper's script produces.

        "Whenever it stops, a post-processing function is executed, and
        it generates .csv files and other log and statistic files"
        (§V-C).  Writes ``job_<id>.csv`` (chronological samples, streamed
        through :meth:`write_csv`) and ``job_<id>_stats.txt`` (the
        min/max/avg report); returns the written paths.
        """
        import pathlib

        directory = pathlib.Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        csv_path = directory / f"job_{job_id}.csv"
        stats_path = directory / f"job_{job_id}_stats.txt"
        with open(csv_path, "w", encoding="utf-8") as fh:
            self.write_csv(job_id, fh)
        stats_path.write_text(self.statistics_report(job_id) + "\n")
        return [str(csv_path), str(stats_path)]

    @staticmethod
    def _sparkline(values: Sequence[float]) -> str:
        """Downsample values to a 32-column ASCII sparkline (0-100 scale).

        Bucket ``i`` is ``[i*len//width, (i+1)*len//width)`` in exact
        integer arithmetic: the buckets tile the input with no skips or
        double counts at any non-integer stride, and each is non-empty
        when ``len > width``, so one ``maximum.reduceat`` takes them all.
        """
        count = len(values)
        if count == 0:
            return ""
        blocks = " .:-=+*#%@"
        width = 32
        if count > width:
            starts = [(i * count) // width for i in range(width)]
            values = np.maximum.reduceat(np.asarray(values, dtype=float), starts).tolist()
        return "".join(
            blocks[min(len(blocks) - 1, int(v / 100.0 * (len(blocks) - 1)))]
            for v in values
        )

    @hot_path
    def statistics_report(self, job_id: int) -> str:
        """The aggregated min/avg/max text report with utilisation traces."""
        session = self.session_for(job_id)
        lines = [
            f"job {job_id}: {session.sample_count} samples "
            f"from t={session.started_at:.1f}s"
        ]
        for stat in session.statistics:
            series = session.device_series(stat.device_index)
            trace = self._sparkline(series.utilization() if series is not None else [])
            lines.append(
                f"  GPU {stat.device_index}: util "
                f"min/avg/max = {stat.gpu_util_min:.0f}/{stat.gpu_util_avg:.0f}/"
                f"{stat.gpu_util_max:.0f} %, fb "
                f"min/avg/max = {stat.fb_used_min}/{stat.fb_used_avg:.0f}/"
                f"{stat.fb_used_max} MiB  [{trace}]"
            )
        return "\n".join(lines)
