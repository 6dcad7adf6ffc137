"""Energy accounting over monitor telemetry."""

import math
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.energy import EnergyMeter, _add_repeated, power_watts
from repro.core.monitor import GPUUsageMonitor
from repro.galaxy.job import GalaxyJob
from repro.galaxy.tool_xml import parse_tool_xml
from repro.gpusim.device import GPUDevice
from repro.gpusim.host import GPUHost, make_k80_host


class TestPowerModel:
    def test_idle_and_limit(self, host):
        device = host.device(0)
        assert power_watts(device, 0.0) == pytest.approx(26.0)
        assert power_watts(device, 100.0) == pytest.approx(149.0)
        assert power_watts(device, 50.0) == pytest.approx((26 + 149) / 2)


class TestEnergyMeter:
    def test_idle_job_draws_idle_power(self, deployment):
        job = deployment.run_tool("seqstats", {"threads": 1})
        meter = EnergyMeter(deployment.monitor)
        report = meter.job_energy(job.job_id)
        # Both idle K80 dies at ~26 W for the 0.5 s run.
        assert report.total_joules == pytest.approx(2 * 26.0 * 0.5, rel=0.05)
        assert report.mean_watts == pytest.approx(52.0, rel=0.05)

    def test_gpu_job_draws_more_than_idle(self, deployment):
        job = deployment.run_tool("racon", {"threads": 4, "workload": "unit"})
        meter = EnergyMeter(deployment.monitor)
        report = meter.job_energy(job.job_id)
        idle_energy = 2 * 26.0 * report.duration_seconds
        assert report.total_joules > idle_energy
        assert report.per_device_joules[0] > report.per_device_joules[1]

    def test_paper_scale_energy_comparison(self, deployment):
        """The extension headline: the ~2x Racon speedup also roughly
        halves the board-level energy of a run."""
        gpu_job = deployment.run_tool("racon", {"threads": 4, "workload": "dataset"})
        meter = EnergyMeter(deployment.monitor)
        report = meter.job_energy(gpu_job.job_id)
        assert report.duration_seconds == pytest.approx(200.0, rel=0.05)
        # Mean draw sits between idle (52 W for two dies) and peak.
        assert 52.0 <= report.mean_watts <= 298.0
        assert report.total_joules > 0

    def test_unmonitored_job_raises(self, deployment):
        meter = EnergyMeter(deployment.monitor)
        with pytest.raises(KeyError):
            meter.job_energy(424242)




def loop_energy(devices, samples):
    """The per-sample trapezoid, one Python float at a time, summed left to
    right: the naive reference ``job_energy`` must equal bit for bit."""
    per_device = {}
    for device in devices:
        column = [s for s in samples if s.device_index == device.minor_number]
        joules = 0.0
        for before, after in zip(column, column[1:]):
            dt = after.time - before.time
            p0 = power_watts(device, before.gpu_utilization)
            p1 = power_watts(device, after.gpu_utilization)
            joules += 0.5 * (p0 + p1) * dt
        per_device[device.minor_number] = joules
    duration = samples[-1].time - samples[0].time
    return duration, per_device


def hexed(per_device):
    return {index: joules.hex() for index, joules in per_device.items()}


def make_job():
    return GalaxyJob(tool=parse_tool_xml('<tool id="t"><command>x</command></tool>'))


def check_energy(monitor, job_id):
    """``job_energy`` of a session, asserted ``float.hex``-equal to the loop."""
    report = EnergyMeter(monitor).job_energy(job_id)
    duration, per_device = loop_energy(
        monitor.host.devices, list(monitor.session_for(job_id).samples)
    )
    assert hexed(report.per_device_joules) == hexed(per_device)
    assert list(report.per_device_joules) == list(per_device)
    assert report.duration_seconds.hex() == float(duration).hex()
    assert all(type(j) is float for j in report.per_device_joules.values())
    assert type(report.duration_seconds) is float
    return report


class TestBitEqualToTheLoop:
    def session(self, host, ticks):
        """A session sampled at ``ticks`` (``[(time, util), ...]``): it
        starts at the first instant and stops at the last, the ones between
        lie on the one-second walk, and from each instant on every device
        reads ``util`` plus its own index."""

        def set_util(util):
            for device in host.devices:
                device.sm_utilization = util + device.minor_number

        monitor = GPUUsageMonitor(host)
        job = make_job()
        (first, util), *rest = ticks
        host.clock.advance_to(first)
        set_util(util)
        monitor.start(job)
        for time, util in rest:
            host.clock.call_at(time, lambda now, util=util: set_util(util))
        host.clock.advance_to(ticks[-1][0])
        monitor.stop(job)
        assert monitor.session_for(job.job_id).times.tolist() == [t for t, _ in ticks]
        return monitor, job.job_id

    def check(self, monitor, job_id):
        return check_energy(monitor, job_id)

    def test_bonito_dataset_session(self, deployment):
        job = deployment.run_tool("bonito", {"workload": "dataset"})
        session = deployment.monitor.session_for(job.job_id)
        assert len(session.times) > 14_000  # hours of one-second samples
        report = self.check(deployment.monitor, job.job_id)
        # Bonito's wrapper asks for GPU 1; GPU 0 idles at 26 W throughout.
        assert report.per_device_joules[1] > report.per_device_joules[0] > 0

    def test_two_tick_session(self, host):
        report = self.check(*self.session(host, [(1.5, 40.0), (2.25, 90.0)]))
        assert report.duration_seconds == 0.75
        assert report.per_device_joules[0] > 26.0 * 0.75

    def test_one_tick_session_is_zero(self, host):
        report = self.check(*self.session(host, [(3.0, 80.0)]))
        assert report.duration_seconds == 0.0
        assert report.per_device_joules == {0: 0.0, 1: 0.0}
        assert report.mean_watts == 0.0

    def test_device_without_a_series(self):
        """A die added to the host after a session stopped has no series
        in it and reads zero joules."""
        host = GPUHost(device_count=1)
        monitor, job_id = self.session(
            host, [(0.0, 10.0), (1.0, 55.5), (2.0, 55.5), (2.5, 0.0)]
        )
        host.devices.append(GPUDevice(minor_number=1, arch=host.devices[0].arch))
        report = self.check(monitor, job_id)
        assert report.per_device_joules[0] > 0.0
        assert report.per_device_joules[1] == 0.0

    def test_session_can_grow_after_a_reading(self, host):
        """The buffer views are gone when ``job_energy`` returns: a run
        table that still exported one would refuse to grow."""
        monitor = GPUUsageMonitor(host)
        job = make_job()
        monitor.start(job)
        host.device(0).sm_utilization = 30.0
        host.clock.advance(3.0)
        EnergyMeter(monitor).job_energy(job.job_id)
        host.device(0).sm_utilization = 70.0
        host.clock.advance(2.5)
        monitor.stop(job)
        assert len(monitor.session_for(job.job_id).series[0].run_lens) == 3
        self.check(monitor, job.job_id)


def _tie_utilization(device, low_bit):
    """A utilisation whose power is an odd multiple of ``low_bit``: a
    running total whose ulp is ``2 * low_bit`` then meets a tie on every
    addition of that power times a power of two."""
    base = (100.0 - 26.0) * 100.0 / (device.arch.power_limit_watts - 26.0)
    util = base
    for _ in range(100_000):
        if math.fmod(power_watts(device, util), 2 * low_bit) == low_bit:
            return util
        util = math.nextafter(util, math.inf)
    raise AssertionError("no utilisation with that power")


#: K80 power of ~100 W, an odd multiple of 2**-39: totals in
#: [2**14, 2**15) J meet a tie on every one-second addition of it.
TIE_UTIL = _tie_utilization(make_k80_host().device(0), 2.0**-39)
UTILIZATIONS = st.sampled_from([0.0, 50.0, 100.0, 12.5, TIE_UTIL]) | st.floats(0.0, 100.0)


class TestRunWalk:
    """``job_energy`` walks runs and binades, never ticks: it must still
    equal the per-sample loop bit for bit."""

    @staticmethod
    def walk(start, ticks, flips, util_at_start):
        """A session from ``start`` with ``ticks`` periodic ticks (plus a
        stop half a second after the last) whose device-0 utilisation
        changes at the instants ``start + offset * ticks``."""
        host = make_k80_host()
        monitor = GPUUsageMonitor(host)
        job = make_job()
        host.clock.advance_to(start)
        host.device(0).sm_utilization = util_at_start
        host.device(1).sm_utilization = 100.0 - util_at_start
        monitor.start(job)
        for offset, util in flips:
            host.clock.call_at(
                start + offset * ticks,
                lambda now, util=util: setattr(host.device(0), "sm_utilization", util),
            )
        host.clock.advance_to(start + ticks + 0.5)
        monitor.stop(job)
        return monitor, job.job_id

    @settings(max_examples=80, deadline=None)
    @given(
        start=st.floats(0.0, 6.0),
        flips=st.lists(st.tuples(st.floats(0.0, 1.0), UTILIZATIONS), max_size=5),
        first=UTILIZATIONS,
    )
    @example(start=0.0, flips=[], first=TIE_UTIL)
    @example(start=0.1, flips=[], first=TIE_UTIL)
    @example(start=math.nextafter(3.0, 0.0), flips=[(0.3, TIE_UTIL)], first=12.5)
    @example(start=0.0, flips=[(0.5, TIE_UTIL), (0.75, TIE_UTIL)], first=50.0)
    def test_equals_the_loop(self, start, flips, first):
        # Enough ticks for the walk to cross at least 3 binades.
        first_due = start + 1.0
        ticks = max(40, math.ceil(16 * first_due - start))
        monitor, job_id = self.walk(start, ticks, flips, first)
        session = monitor.session_for(job_id)
        assert math.frexp(session.last_time)[1] - math.frexp(session.first_due)[1] >= 3
        report = check_energy(monitor, job_id)
        # ... and the total crossed at least 3 binades after its first term.
        assert report.per_device_joules[0] >= 8 * 26.0

    def test_a_tie_binade_is_walked_in_jumps(self):
        """A one-second session at :data:`TIE_UTIL` crosses the binade
        where every addition is a tie: the walk takes it in jumps of the
        even-total increment and still equals the loop."""
        monitor, job_id = self.walk(0.0, 400, [], TIE_UTIL)
        joules = check_energy(monitor, job_id).per_device_joules[0]
        assert joules > 2.0**15

    @settings(max_examples=300, deadline=None)
    @given(
        total=st.floats(0.0, 1e6),
        mantissa=st.integers(1, 2**53 - 1),
        exponent=st.integers(-60, 10),
        n=st.integers(0, 5_000),
    )
    def test_add_repeated_is_the_loop(self, total, mantissa, exponent, n):
        """Terms with few significant bits reach ties and zero increments."""
        term = math.ldexp(mantissa, exponent)
        loop = total
        for _ in range(n):
            loop += term
        assert _add_repeated(total, term, n).hex() == loop.hex()


@pytest.mark.perf_guard
def test_energy_of_a_long_session_allocates_nothing_per_tick():
    """A 1.2 M-tick session with six runs per device: ``job_energy``
    reads run tables and the walk, so its allocation peak is a few small
    objects, not per-tick arrays (9.6 MB for one float column)."""
    host = make_k80_host()
    monitor = GPUUsageMonitor(host)
    job = make_job()
    monitor.start(job)
    for util in (10.0, 95.5, 33.3, 0.0, 71.25):
        host.device(0).sm_utilization = util
        host.device(1).sm_utilization = util / 3
        host.clock.advance(240_000.0)
    monitor.stop(job)
    assert monitor.session_for(job.job_id).tick_count > 1_000_000
    meter = EnergyMeter(monitor)
    tracemalloc.start()
    try:
        report = meter.job_energy(job.job_id)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert report.per_device_joules[0] > report.per_device_joules[1] > 0
