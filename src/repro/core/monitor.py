"""The GPU hardware usage script (paper §V-C).

"This script obtains the GPU utilization, GPU memory utilization, and
PCIe link generation information for every second, including minima,
maxima, and average.  It is executed when a job is submitted and stopped
when a job is either killed or stops.  Whenever it stops, a
post-processing function is executed, and it generates .csv files and
other log and statistic files."

The reproduction samples on the *virtual* clock.  A naive port would
schedule one callback per simulated second and append one
:class:`UsageSample` dataclass per device per tick — at the paper's
scales (>210 h Bonito CPU runs) that is ~756k heap operations and
~1.5M short-lived objects per job.  Instead the monitor registers a
single *span listener* on the clock: between two callback firings the
simulated device state cannot change, so every quiescent span is
sampled in bulk into per-device columnar ``array`` buffers, with
per-device min/max/sum accumulators streamed along the way.  The
observable sample sequence (timestamps and values) is identical to the
per-second-callback scheme; see ``docs/performance.md``.

The legacy object API is preserved: ``session.samples`` is a lazy
sequence view that materialises :class:`UsageSample` objects on access,
so existing consumers (tests, the energy meter protocol, metrics
plugins) keep working while the monitor itself never builds them.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.galaxy.job import GalaxyJob
from repro.gpusim.host import GPUHost
from repro.hotpath import hot_path

#: Rows per chunk emitted by the buffered CSV writer.  Large enough to
#: amortise the join/write per chunk, small enough to keep the streaming
#: path's working set bounded (~1 MiB of text at typical row widths).
_CSV_CHUNK_ROWS = 8192


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
    """Columnar per-device telemetry: parallel arrays plus streaming stats.

    One instance per device per session.  Appends go through
    :meth:`push` (one observation) or :meth:`push_run` (a run of ``n``
    identical observations, the quiescent-span fast path, which extends
    the arrays at C speed and updates the accumulators in O(1)).
    """

    __slots__ = (
        "device_index",
        "gpu_util",
        "mem_util",
        "fb_used",
        "pcie_gen",
        "run_lens",
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
        self.gpu_util = array("d")
        self.mem_util = array("d")
        self.fb_used = array("q")
        self.pcie_gen = array("q")
        #: Lengths of maximal runs of identical (util, mem, fb, pcie)
        #: observations, in append order.  Quiescent spans make these
        #: runs long, and renderers exploit that: the CSV exporter
        #: formats each run's value columns once instead of once per
        #: row.  ``sum(run_lens) == len(self)`` always.
        self.run_lens = array("q")
        self.util_min = float("inf")
        self.util_max = float("-inf")
        self.util_sum = 0.0
        self.mem_min = float("inf")
        self.mem_max = float("-inf")
        self.mem_sum = 0.0
        self.fb_min = 0
        self.fb_max = 0
        self.fb_sum = 0

    def __len__(self) -> int:
        return len(self.gpu_util)

    def push(self, util: float, mem: float, fb: int, pcie: int) -> None:
        """Record one observation."""
        self._extend_runs(util, mem, fb, pcie, 1)
        self.gpu_util.append(util)
        self.mem_util.append(mem)
        self.fb_used.append(fb)
        self.pcie_gen.append(pcie)
        self._accumulate(util, mem, fb, 1)

    def push_run(self, util: float, mem: float, fb: int, pcie: int, n: int) -> None:
        """Record ``n`` identical observations (quiescent-span bulk path)."""
        self._extend_runs(util, mem, fb, pcie, n)
        self.gpu_util.extend(array("d", (util,)) * n)
        self.mem_util.extend(array("d", (mem,)) * n)
        self.fb_used.extend(array("q", (fb,)) * n)
        self.pcie_gen.extend(array("q", (pcie,)) * n)
        self._accumulate(util, mem, fb, n)

    def _extend_runs(self, util: float, mem: float, fb: int, pcie: int, n: int) -> None:
        """Grow the last run by ``n`` when the values repeat, else open one.

        Must run *before* the columns are extended — it compares against
        the current last observation.
        """
        if (
            self.run_lens
            and self.gpu_util[-1] == util
            and self.mem_util[-1] == mem
            and self.fb_used[-1] == fb
            and self.pcie_gen[-1] == pcie
        ):
            self.run_lens[-1] += n
        else:
            self.run_lens.append(n)

    def _accumulate(self, util: float, mem: float, fb: int, n: int) -> None:
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
        if len(self.gpu_util) == n or fb < self.fb_min:
            self.fb_min = fb
        if len(self.gpu_util) == n or fb > self.fb_max:
            self.fb_max = fb
        self.fb_sum += fb * n

    def statistics(self) -> UsageStatistics | None:
        """The streamed min/max/avg, or ``None`` when nothing was sampled."""
        count = len(self.gpu_util)
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

    Sample ``i`` corresponds to tick ``i // ndev`` of device column
    ``i % ndev`` — the exact append order of the legacy per-tick loop
    (every device is sampled at every tick, devices in host order).
    """

    __slots__ = ("_session",)

    def __init__(self, session: MonitoredJob) -> None:
        self._session = session

    def __len__(self) -> int:
        return len(self._session.times) * len(self._session.series)

    def _make(self, tick: int, column: int) -> UsageSample:
        series = self._session.series[column]
        return UsageSample(
            time=self._session.times[tick],
            device_index=series.device_index,
            gpu_utilization=series.gpu_util[tick],
            memory_utilization=series.mem_util[tick],
            fb_used_mib=series.fb_used[tick],
            pcie_generation=series.pcie_gen[tick],
        )

    def __getitem__(self, index):
        total = len(self)
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(total))]
        if index < 0:
            index += total
        if not 0 <= index < total:
            raise IndexError("sample index out of range")
        ndev = len(self._session.series)
        return self._make(index // ndev, index % ndev)

    def __iter__(self) -> Iterator[UsageSample]:
        session = self._session
        for tick in range(len(session.times)):
            for column in range(len(session.series)):
                yield self._make(tick, column)


class MonitoredJob:
    """Per-job sampling session, stored columnar.

    ``times`` holds one entry per tick; ``series[j]`` holds the parallel
    value columns of the j-th host device.  ``samples`` preserves the
    legacy flat-list-of-:class:`UsageSample` API as a lazy view.
    """

    __slots__ = ("job_id", "started_at", "times", "series", "next_due", "stopped", "statistics")

    def __init__(self, job_id: int, started_at: float, device_indices: Sequence[int]) -> None:
        self.job_id = job_id
        self.started_at = started_at
        self.times = array("d")
        self.series = [DeviceSeries(index) for index in device_indices]
        #: Next periodic sample instant (maintained by the monitor).
        self.next_due = started_at
        self.stopped = False
        self.statistics: list[UsageStatistics] = []

    @property
    def samples(self) -> SampleView:
        """Chronological samples (devices interleaved per tick)."""
        return SampleView(self)

    @property
    def last_time(self) -> float | None:
        """Timestamp of the most recent tick, or None before any sample."""
        return self.times[-1] if self.times else None

    def device_series(self, device_index: int) -> DeviceSeries | None:
        """The value columns of one device (None for unknown devices)."""
        for series in self.series:
            if series.device_index == device_index:
                return series
        return None


class GPUUsageMonitor:
    """Chronological per-second GPU telemetry, with CSV post-processing.

    Implements the runner's :class:`~repro.galaxy.runners.base.UsageMonitor`
    protocol.  Several jobs may be monitored concurrently (multi-GPU
    cases); each keeps its own columnar sample store.

    One span listener per monitor fans out to every live session —
    there is no per-session timer chain, and a stopped session can never
    receive a late tick (it is dropped from the live set synchronously
    in :meth:`stop`).
    """

    def __init__(self, host: GPUHost, interval: float = 1.0) -> None:
        if interval <= 0:
            raise ValueError("sampling interval must be positive")
        self.host = host
        self.interval = interval
        self.sessions: dict[int, MonitoredJob] = {}
        self._live: dict[int, MonitoredJob] = {}
        self._listening = False

    # ------------------------------------------------------------------ #
    # UsageMonitor protocol
    # ------------------------------------------------------------------ #
    @hot_path
    def start(self, job: GalaxyJob) -> None:
        """Begin sampling for ``job`` (called at tool-execution start)."""
        now = self.host.clock.now
        session = MonitoredJob(
            job_id=job.job_id,
            started_at=now,
            device_indices=[d.minor_number for d in self.host.devices],
        )
        self.sessions[job.job_id] = session
        self._live[job.job_id] = session
        self._sample(session, now)
        session.next_due = now + self.interval
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
        last = session.last_time
        if last is None or last < now:
            self._sample(session, now)
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
        """Bulk-sample every live session over a quiescent clock span.

        The simulated device state is constant over ``(start, end)`` (the
        clock fires this between callbacks), so all periodic ticks due in
        the span observe identical values.  ``closed`` spans include
        their ``end`` instant; open spans precede a callback at ``end``
        and must leave that instant to a later span, after the callback
        has mutated state.
        """
        for session in self._live.values():
            due = session.next_due
            if due > end or (due == end and not closed):
                continue
            # Count the periodic ticks inside the span by repeated
            # addition (matching the self-rearming timer's float walk),
            # then append them in bulk.
            ticks = array("d")
            if closed:
                while due <= end:
                    ticks.append(due)
                    due += self.interval
            else:
                while due < end:
                    ticks.append(due)
                    due += self.interval
            session.next_due = due
            n = len(ticks)
            if n == 0:
                continue
            session.times.extend(ticks)
            for series, device in zip(session.series, self.host.devices, strict=True):
                series.push_run(
                    device.sm_utilization,
                    device.mem_utilization,
                    device.fb_used_mib,
                    device.pcie_generation_current,
                    n,
                )

    def _sample(self, session: MonitoredJob, now: float) -> None:
        """Record one observation of every device at ``now``."""
        session.times.append(now)
        for series, device in zip(session.series, self.host.devices, strict=True):
            series.push(
                device.sm_utilization,
                device.mem_utilization,
                device.fb_used_mib,
                device.pcie_generation_current,
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

        Rendered run-aware: the value columns repeat for every tick of a
        quiescent span, so each run's column suffix is formatted *once*
        (see :attr:`DeviceSeries.run_lens`) and the timestamp once per
        tick, shared across devices.  Per row, only two list appends
        remain.  Output is byte-identical to the naive per-row
        formatting.
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
        times = session.times
        count = len(times)
        if count == 0:
            return
        # One timestamp string per tick (shared by every device's row)…
        time_strs = [f"{t:.3f}" for t in times]
        # …and one column-suffix string per *run*, expanded by reference.
        suffix_columns: list[list[str]] = []
        for series in session.series:
            suffixes: list[str] = []
            start = 0
            for run in series.run_lens:
                suffix = (
                    f",{series.device_index},{series.gpu_util[start]:.1f},"
                    f"{series.mem_util[start]:.1f},{series.fb_used[start]},"
                    f"{series.pcie_gen[start]}\n"
                )
                suffixes.extend([suffix] * run)
                start += run
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
    def _sparkline(values: Sequence[float], width: int = 32) -> str:
        """Downsample values to an ASCII sparkline (0-100 scale).

        Buckets are ``[i*len//width, (i+1)*len//width)`` in exact integer
        arithmetic: they tile the input with no skips or double counts at
        any non-integer stride (the old ``int(i * stride)`` float
        bucketing could drift at large lengths).
        """
        count = len(values)
        if count == 0:
            return ""
        blocks = " .:-=+*#%@"
        if count > width:
            values = [
                max(values[(i * count) // width : ((i + 1) * count) // width])
                for i in range(width)
            ]
        return "".join(
            blocks[min(len(blocks) - 1, int(v / 100.0 * (len(blocks) - 1)))]
            for v in values
        )

    @hot_path
    def statistics_report(self, job_id: int) -> str:
        """The aggregated min/avg/max text report with utilisation traces."""
        session = self.session_for(job_id)
        sample_count = len(session.times) * len(session.series)
        lines = [
            f"job {job_id}: {sample_count} samples "
            f"from t={session.started_at:.1f}s"
        ]
        for stat in session.statistics:
            series = session.device_series(stat.device_index)
            trace = self._sparkline(series.gpu_util if series is not None else [])
            lines.append(
                f"  GPU {stat.device_index}: util "
                f"min/avg/max = {stat.gpu_util_min:.0f}/{stat.gpu_util_avg:.0f}/"
                f"{stat.gpu_util_max:.0f} %, fb "
                f"min/avg/max = {stat.fb_used_min}/{stat.fb_used_avg:.0f}/"
                f"{stat.fb_used_max} MiB  [{trace}]"
            )
        return "\n".join(lines)
