"""GPU hardware usage monitor (paper §V-C)."""

import math
from array import array

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.energy import EnergyMeter
from repro.core.monitor import (
    DeviceSeries,
    GPUUsageMonitor,
    MonitoredJob,
    UsageSample,
    UsageStatistics,
    walk_ticks,
)
from repro.galaxy.job import GalaxyJob
from repro.galaxy.tool_xml import parse_tool_xml
from repro.gpusim.errors import ClockError
from repro.gpusim.host import make_k80_host
from repro.gpusim.kernels import KernelLaunch, KernelTimingModel
from tests.core.test_energy import loop_energy


def make_job():
    return GalaxyJob(tool=parse_tool_xml('<tool id="t"><command>x</command></tool>'))


class TestSampling:
    def test_one_sample_per_second_per_device(self, host):
        monitor = GPUUsageMonitor(host)
        job = make_job()
        monitor.start(job)
        host.clock.advance(5.0)
        monitor.stop(job)
        session = monitor.session_for(job.job_id)
        # start sample + 5 ticks + stop sample, for each of 2 devices
        times = sorted({s.time for s in session.samples})
        assert times == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        assert len(session.samples) == 6 * 2

    def test_timestamps_strictly_increasing_per_device(self, host):
        monitor = GPUUsageMonitor(host)
        job = make_job()
        monitor.start(job)
        host.clock.advance(7.3)
        monitor.stop(job)
        for device_index in (0, 1):
            stamps = [
                s.time
                for s in monitor.session_for(job.job_id).samples
                if s.device_index == device_index
            ]
            assert stamps == sorted(stamps)
            assert len(set(stamps)) == len(stamps)

    def test_observes_kernel_utilization_mid_run(self, host):
        """Samples taken while a (simulated) kernel is executing see the
        device's utilisation, the monitor's whole purpose."""
        monitor = GPUUsageMonitor(host)
        job = make_job()
        monitor.start(job)
        timing = KernelTimingModel(host, host.device(0))
        timing.launch(
            KernelLaunch("big", 60, 256, flops=1e9, bytes_read=6e11, bytes_written=0)
        )
        monitor.stop(job)
        samples = [
            s
            for s in monitor.session_for(job.job_id).samples
            if s.device_index == 0 and s.gpu_utilization > 0
        ]
        assert samples, "monitor never saw the kernel running"

    def test_stop_idempotent(self, host):
        monitor = GPUUsageMonitor(host)
        job = make_job()
        monitor.start(job)
        host.clock.advance(2.0)
        monitor.stop(job)
        count = len(monitor.session_for(job.job_id).samples)
        monitor.stop(job)
        assert len(monitor.session_for(job.job_id).samples) == count

    def test_sampling_stops_after_job(self, host):
        monitor = GPUUsageMonitor(host)
        job = make_job()
        monitor.start(job)
        host.clock.advance(2.0)
        monitor.stop(job)
        count = len(monitor.session_for(job.job_id).samples)
        host.clock.advance(10.0)
        assert len(monitor.session_for(job.job_id).samples) == count

    def test_concurrent_jobs_sampled_independently(self, host):
        monitor = GPUUsageMonitor(host)
        job_a, job_b = make_job(), make_job()
        monitor.start(job_a)
        host.clock.advance(2.0)
        monitor.start(job_b)
        host.clock.advance(2.0)
        monitor.stop(job_a)
        monitor.stop(job_b)
        a_samples = monitor.session_for(job_a.job_id).samples
        b_samples = monitor.session_for(job_b.job_id).samples
        assert min(s.time for s in a_samples) == 0.0
        assert min(s.time for s in b_samples) == 2.0

    @pytest.mark.parametrize("delta", [1e16, math.inf, math.nan])
    def test_clock_refuses_to_pass_the_horizon(self, host, delta):
        """From 2**53 s on ``t + 1.0 == t``: a session live there would
        walk forever.  The clock refuses the move, and the session is
        as it was."""
        monitor = GPUUsageMonitor(host)
        job = make_job()
        monitor.start(job)
        host.clock.advance(2.5)
        with pytest.raises(ClockError, match=r"2\*\*53"):
            host.clock.advance(delta)
        assert host.clock.now == 2.5
        monitor.stop(job)
        session = monitor.session_for(job.job_id)
        assert session.times.tolist() == [0.0, 1.0, 2.0, 2.5]


class TestPostProcessing:
    def test_statistics_min_max_avg(self, host):
        monitor = GPUUsageMonitor(host)
        job = make_job()
        monitor.start(job)
        host.device(0).sm_utilization = 50.0
        host.clock.advance(1.0)
        host.device(0).sm_utilization = 100.0
        host.clock.advance(1.0)
        monitor.stop(job)
        stats = {s.device_index: s for s in monitor.session_for(job.job_id).statistics}
        assert stats[0].gpu_util_min == 0.0
        assert stats[0].gpu_util_max == 100.0
        assert 0 < stats[0].gpu_util_avg < 100.0
        assert stats[1].gpu_util_max == 0.0

    def test_csv_output_shape(self, host):
        monitor = GPUUsageMonitor(host)
        job = make_job()
        monitor.start(job)
        host.clock.advance(3.0)
        monitor.stop(job)
        csv = monitor.to_csv(job.job_id)
        lines = csv.strip().splitlines()
        assert lines[0].startswith("time,device,gpu_utilization")
        assert len(lines) == 1 + len(monitor.session_for(job.job_id).samples)
        assert lines[1].split(",")[1] in ("0", "1")

    def test_statistics_report_mentions_devices(self, host):
        monitor = GPUUsageMonitor(host)
        job = make_job()
        monitor.start(job)
        host.clock.advance(1.0)
        monitor.stop(job)
        report = monitor.statistics_report(job.job_id)
        assert "GPU 0" in report and "GPU 1" in report


class TestStopBoundaries:
    def test_stop_at_exact_tick_boundary_takes_no_duplicate(self, host):
        """Stopping at an integer second must not record that instant
        twice: the per-second tick at t=5 already sampled it."""
        monitor = GPUUsageMonitor(host)
        job = make_job()
        monitor.start(job)
        host.clock.advance(5.0)
        monitor.stop(job)
        session = monitor.session_for(job.job_id)
        for device_index in (0, 1):
            stamps = [
                s.time for s in session.samples if s.device_index == device_index
            ]
            assert stamps == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
            assert len(set(stamps)) == len(stamps)

    def test_stop_mid_interval_records_final_partial_sample(self, host):
        monitor = GPUUsageMonitor(host)
        job = make_job()
        monitor.start(job)
        host.clock.advance(2.5)
        monitor.stop(job)
        stamps = [
            s.time
            for s in monitor.session_for(job.job_id).samples
            if s.device_index == 0
        ]
        assert stamps == [0.0, 1.0, 2.0, 2.5]

    def test_pending_tick_never_appends_after_stop(self, host):
        """A stopped session's next due tick must not land even when the
        clock advances exactly onto it."""
        monitor = GPUUsageMonitor(host)
        job = make_job()
        monitor.start(job)
        host.clock.advance(2.0)
        monitor.stop(job)
        count = len(monitor.session_for(job.job_id).samples)
        host.clock.advance(1.0)  # exactly the tick that was due at t=3
        host.clock.advance(7.0)
        assert len(monitor.session_for(job.job_id).samples) == count

    def test_stop_while_another_session_keeps_ticking(self, host):
        monitor = GPUUsageMonitor(host)
        job_a, job_b = make_job(), make_job()
        monitor.start(job_a)
        monitor.start(job_b)
        host.clock.advance(2.0)
        monitor.stop(job_a)
        frozen = len(monitor.session_for(job_a.job_id).samples)
        host.clock.advance(3.0)
        assert len(monitor.session_for(job_a.job_id).samples) == frozen
        b_stamps = {
            s.time for s in monitor.session_for(job_b.job_id).samples
        }
        assert 5.0 in b_stamps


class TestSparkline:
    def test_width_plus_one_buckets_cover_everything(self):
        """len == width + 1: integer bucketing must still tile the input
        exactly — every value lands in exactly one bucket."""
        width = 32
        values = [0.0] * width + [100.0]
        line = GPUUsageMonitor._sparkline(values)
        assert len(line) == width
        assert line[-1] == "@"  # the extra max value was not dropped
        assert set(line[:-1]) == {" "}

    def test_much_longer_than_width_keeps_the_peak(self):
        width = 32
        values = [0.0] * 9_999 + [100.0]
        line = GPUUsageMonitor._sparkline(values)
        assert len(line) == width
        assert line[-1] == "@"
        peak_anywhere = [0.0] * 5_000 + [100.0] + [0.0] * 4_999
        assert "@" in GPUUsageMonitor._sparkline(peak_anywhere)

    def test_short_input_rendered_verbatim(self):
        line = GPUUsageMonitor._sparkline([0.0, 50.0, 100.0])
        assert line == " =@"

    def test_empty_input(self):
        assert GPUUsageMonitor._sparkline([]) == ""

    def test_bucket_maxima_are_exact_at_awkward_strides(self):
        """Place one spike per bucket at stride len/width = 7.03125 and
        check each output column sees its spike (the float-stride code
        path this replaces could skip or double-count boundaries)."""
        width = 32
        count = 225  # not a multiple of width
        values = [0.0] * count
        for i in range(width):
            lo, hi = (i * count) // width, ((i + 1) * count) // width
            values[lo] = 100.0
            assert hi > lo  # every bucket non-empty
        line = GPUUsageMonitor._sparkline(values)
        assert line == "@" * width


def _naive_csv(samples):
    """The reference per-row renderer the run-aware writer must match."""
    out = [
        "time,device,gpu_utilization,memory_utilization,fb_used_mib,"
        "pcie_generation\n"
    ]
    for s in samples:
        out.append(
            f"{s.time:.3f},{s.device_index},{s.gpu_utilization:.1f},"
            f"{s.memory_utilization:.1f},{s.fb_used_mib},{s.pcie_generation}\n"
        )
    return "".join(out)


def varied_session(host, seconds=40, period=10):
    """A session whose device values change every ``period`` seconds."""
    monitor = GPUUsageMonitor(host)
    job = make_job()
    monitor.start(job)

    def flip(now):
        phase = int(now) // period
        host.devices[0].sm_utilization = float((phase * 17) % 101)
        host.devices[1].sm_utilization = float((phase * 31) % 101)

    for t in range(period, seconds, period):
        host.clock.call_at(float(t), flip)
    host.clock.advance(float(seconds))
    monitor.stop(job)
    return monitor, job


class TestCsvStreaming:
    """The buffered run-aware CSV writer (see docs/performance.md)."""

    def test_byte_identical_to_naive_rendering(self, host):
        monitor, job = varied_session(host)
        session = monitor.session_for(job.job_id)
        assert monitor.to_csv(job.job_id) == _naive_csv(session.samples)

    def test_write_csv_streams_the_same_bytes(self, host):
        import io

        monitor, job = varied_session(host)
        sink = io.StringIO()
        written = monitor.write_csv(job.job_id, sink)
        document = monitor.to_csv(job.job_id)
        assert sink.getvalue() == document
        assert written == len(document)

    def test_run_lengths_tile_every_series(self, host):
        monitor, job = varied_session(host)
        session = monitor.session_for(job.job_id)
        for series in session.series:
            assert sum(series.run_lens) == series.count
            # The flips above guarantee more than one run, so the
            # run-compression actually exercised the boundary logic.
            assert len(series.run_lens) > 1

    def test_dump_writes_streamed_csv(self, host, tmp_path):
        monitor, job = varied_session(host)
        paths = monitor.dump(job.job_id, tmp_path)
        csv_path = next(p for p in paths if p.endswith(".csv"))
        with open(csv_path, encoding="utf-8") as fh:
            assert fh.read() == monitor.to_csv(job.job_id)

    def test_empty_session_renders_header_only(self, host):
        monitor = GPUUsageMonitor(host)
        job = make_job()
        monitor.start(job)
        monitor.stop(job)
        csv = monitor.to_csv(job.job_id)
        lines = csv.splitlines()
        assert lines[0].startswith("time,device,")
        # start+stop at the same instant still records one tick.
        assert len(lines) == 1 + len(monitor.session_for(job.job_id).samples)

    def test_chunking_boundary_exact(self, host):
        """A session crossing the chunk size still renders losslessly."""
        from repro.core import monitor as monitor_mod

        original = monitor_mod._CSV_CHUNK_ROWS
        monitor_mod._CSV_CHUNK_ROWS = 8
        try:
            monitor, job = varied_session(host, seconds=37)
            session = monitor.session_for(job.job_id)
            assert monitor.to_csv(job.job_id) == _naive_csv(session.samples)
        finally:
            monitor_mod._CSV_CHUNK_ROWS = original


def naive_walk(due, end, closed):
    """The tick loop ``walk_ticks`` must equal: one addition per tick."""
    count, last = 0, math.nan
    while due < end or (closed and due == end):
        count, last, due = count + 1, due, due + 1.0
    return count, last, due


session_starts = st.one_of(
    st.just(0.0),
    st.integers(0, 1 << 24).map(lambda k: k / 256),  # dyadic
    st.floats(0.0, 1e5, allow_nan=False, allow_infinity=False),  # mostly not
    st.integers(-3, 52).map(lambda e: math.nextafter(2.0**e, 0.0)),
    st.integers(-3, 52).map(lambda e: 2.0**e - 0.5),
    st.integers(1, 52).map(lambda e: math.nextafter(2.0**e - 1.0, 0.0)),  # due just below
    st.floats(1e6, 1e12, allow_nan=False, allow_infinity=False),
)


class TestWalkTicks:
    """``walk_ticks`` against the loop, bit for bit."""

    @staticmethod
    def check(start, steps, nudge, closed):
        """Walk from ``start + 1.0`` to ``steps`` ticks on, nudged; returns
        the first and last walk values the span covers."""
        due = start + 1.0
        walk_value = due
        for _ in range(steps):
            walk_value += 1.0
        end = {
            "on": walk_value,
            "below": math.nextafter(walk_value, -math.inf),
            "above": math.nextafter(walk_value, math.inf),
            "between": walk_value + 0.5,
        }[nudge]
        count, last, next_due = walk_ticks(due, end, closed)
        want_count, want_last, want_next = naive_walk(due, end, closed)
        assert type(count) is int and type(last) is float
        assert (count, last.hex(), next_due.hex()) == (
            want_count, want_last.hex(), want_next.hex()
        )
        return due, walk_value

    @given(
        start=session_starts,
        steps=st.integers(0, 1500),
        nudge=st.sampled_from(["on", "below", "above", "between"]),
        closed=st.booleans(),
    )
    @example(start=math.nextafter(1024.0, 0.0), steps=40, nudge="on", closed=True)
    @example(start=math.nextafter(2.0**52, 0.0), steps=40, nudge="above", closed=False)
    @example(start=0.0, steps=1000, nudge="on", closed=False)
    @example(start=1e6 + 0.1, steps=900, nudge="between", closed=True)
    @settings(max_examples=300, deadline=None)
    def test_matches_the_loop(self, start, steps, nudge, closed):
        self.check(start, steps, nudge, closed)

    @pytest.mark.parametrize(
        "start", [0.1, 0.75, 3.3, math.nextafter(15.0, 0.0), math.nextafter(16.0, 0.0)]
    )
    @pytest.mark.parametrize("nudge", ["on", "below", "above", "between"])
    @pytest.mark.parametrize("closed", [False, True])
    def test_across_binades(self, start, nudge, closed):
        """Non-dyadic and just-below-a-power-of-two starts walked over
        at least three binade crossings, every way the span can end."""
        due, walk_value = self.check(start, 200, nudge, closed)
        assert math.frexp(walk_value)[1] - math.frexp(due)[1] >= 3

    def test_a_day_is_a_handful_of_progressions(self):
        """One-second ticks from t=1 to t=86 400 land on integers: every
        addition is exact, one progression per binade (17 in all)."""
        assert walk_ticks(1.0, 86_400.0, True) == (86_400, 86_400.0, 86_401.0)
        assert walk_ticks(1.0, 86_400.0, False) == (86_399, 86_399.0, 86_400.0)

    def test_nothing_due(self):
        count, last, next_due = walk_ticks(5.0, 4.5, True)
        assert (count, next_due) == (0, 5.0) and math.isnan(last)


class NaiveMonitor:
    """The per-tick reference: every tick's instant and every device's
    reading stored as taken, periodic ticks walked one ``due += 1.0`` at
    a time, and statistics summed per sampling call (``value * n``) as
    the monitor streams them."""

    def __init__(self, host):
        self.host = host
        self.times = []
        self.rows = []  # per tick: one (util, mem, fb, pcie) per device
        self.calls = []  # (readings, n) per sampling call
        self.next_due = None

    def start(self):
        now = self.host.clock.now
        self._take([now])
        self.next_due = now + 1.0
        self.host.clock.add_span_listener(self.on_span)

    def on_span(self, start, end, closed):
        ticks = []
        due = self.next_due
        while due < end or (closed and due == end):
            ticks.append(due)
            due += 1.0
        self.next_due = due
        if ticks:
            self._take(ticks)

    def stop(self):
        now = self.host.clock.now
        if self.times[-1] < now:
            self._take([now])
        self.host.clock.remove_span_listener(self.on_span)

    def _take(self, ticks):
        readings = [
            (d.sm_utilization, d.mem_utilization, d.fb_used_mib,
             d.pcie_generation_current)
            for d in self.host.devices
        ]
        self.times.extend(ticks)
        self.rows.extend([readings] * len(ticks))
        self.calls.append((readings, len(ticks)))

    def samples(self):
        return [
            UsageSample(time, device.minor_number, *readings[column])
            for time, readings in zip(self.times, self.rows)
            for column, device in enumerate(self.host.devices)
        ]

    def statistics(self):
        stats = []
        count = len(self.times)
        for column, device in enumerate(self.host.devices):
            sums = [0.0, 0.0, 0]
            for readings, n in self.calls:
                for field in range(3):
                    sums[field] += readings[column][field] * n
            values = [row[column] for row in self.rows]
            stats.append(UsageStatistics(
                device_index=device.minor_number,
                samples=count,
                gpu_util_min=min(v[0] for v in values),
                gpu_util_max=max(v[0] for v in values),
                gpu_util_avg=sums[0] / count,
                mem_util_min=min(v[1] for v in values),
                mem_util_max=max(v[1] for v in values),
                mem_util_avg=sums[1] / count,
                fb_used_min=min(v[2] for v in values),
                fb_used_max=max(v[2] for v in values),
                fb_used_avg=sums[2] / count,
            ))
        return stats

    def report(self, job_id):
        width, blocks = 32, " .:-=+*#%@"
        lines = [
            f"job {job_id}: {len(self.times) * len(self.host.devices)} samples "
            f"from t={self.times[0]:.1f}s"
        ]
        for column, stat in enumerate(self.statistics()):
            values = [row[column][0] for row in self.rows]
            count = len(values)
            if count > width:
                values = [
                    max(values[(i * count) // width : ((i + 1) * count) // width])
                    for i in range(width)
                ]
            trace = "".join(
                blocks[min(len(blocks) - 1, int(v / 100.0 * (len(blocks) - 1)))]
                for v in values
            )
            lines.append(
                f"  GPU {stat.device_index}: util "
                f"min/avg/max = {stat.gpu_util_min:.0f}/{stat.gpu_util_avg:.0f}/"
                f"{stat.gpu_util_max:.0f} %, fb "
                f"min/avg/max = {stat.fb_used_min}/{stat.fb_used_avg:.0f}/"
                f"{stat.fb_used_max} MiB  [{trace}]"
            )
        return "\n".join(lines)


READINGS = [(0.0, 0.0, 1), (12.5, 3.0, 3), (40.0, 3.0, 3), (99.9, 61.2, 3)]

schedules = st.lists(
    st.tuples(
        st.sampled_from(["advance", "flip", "flip"]),
        st.integers(0, 120),
        st.sampled_from([0.0, 0.5, 0.999]),
        st.integers(0, len(READINGS) - 1),
        st.integers(0, len(READINGS) - 1),
    ),
    max_size=14,
)


class TestAgainstTheNaiveMonitor:
    """Random ``advance`` / ``call_at`` flip schedules through both
    monitors on one clock: everything a reader sees is byte-identical."""

    @given(
        start=st.sampled_from(
            [0.0, 0.75, 3.3, 2.0**20 - 0.5, math.nextafter(64.0, 0.0), 1e6 + 0.1]
        ),
        schedule=schedules,
        tail=st.sampled_from([0.0, 0.5, 1.0]),
    )
    @settings(max_examples=80, deadline=None)
    def test_byte_identical(self, start, schedule, tail):
        host = make_k80_host()
        clock = host.clock

        def flip(now, first, second):
            for device, index in zip(host.devices, (first, second)):
                util, mem, pcie = READINGS[index]
                device.sm_utilization = util
                device.mem_utilization = mem
                device.pcie_generation_current = pcie

        clock.advance_to(start)
        monitor = GPUUsageMonitor(host)
        naive = NaiveMonitor(host)
        job = make_job()
        monitor.start(job)
        naive.start()
        for kind, ticks, fraction, first, second in schedule:
            delta = ticks + fraction
            if kind == "advance":
                clock.advance(delta)
            else:
                clock.call_at(
                    clock.now + delta,
                    lambda now, a=first, b=second: flip(now, a, b),
                )
        clock.advance(tail)
        monitor.stop(job)
        naive.stop()
        clock.advance(3.0)  # no tick may land after stop

        session = monitor.session_for(job.job_id)
        assert session.times.tobytes() == array("d", naive.times).tobytes()
        samples = naive.samples()
        assert len(session.samples) == len(samples)
        assert [repr(s) for s in session.samples] == [repr(s) for s in samples]
        assert monitor.to_csv(job.job_id) == _naive_csv(samples)
        assert monitor.statistics_report(job.job_id) == naive.report(job.job_id)
        assert repr(session.statistics) == repr(naive.statistics())
        report = EnergyMeter(monitor).job_energy(job.job_id)
        duration, joules = loop_energy(host.devices, samples)
        assert report.duration_seconds.hex() == float(duration).hex()
        assert {k: v.hex() for k, v in report.per_device_joules.items()} == {
            k: v.hex() for k, v in joules.items()
        }


class TestStorage:
    @pytest.mark.perf_guard
    def test_a_day_holds_runs_not_ticks(self, host):
        """A 24 h, 2-device session with 23 hourly utilisation flips: the
        run tables hold at most 25 runs per device, and the tick instants
        are a few scalars however many ticks they stand for."""
        monitor, job = varied_session(host, seconds=86_400, period=3_600)
        session = monitor.session_for(job.job_id)
        assert session.tick_count == 86_401
        for series in session.series:
            assert series.count == 86_401
            columns = [getattr(series, name) for name in DeviceSeries.__slots__]
            columns = [c for c in columns if isinstance(c, array)]
            assert len(columns) == 5 and all(len(c) <= 25 for c in columns)
        time_store = [
            getattr(session, name)
            for name in MonitoredJob.__slots__
            if name not in ("series", "statistics")
        ]
        assert all(type(v) in (int, float, bool, type(None)) for v in time_store)
