"""Energy accounting over monitor telemetry."""

import pytest

from repro.core.energy import EnergyMeter, power_watts
from repro.core.monitor import GPUUsageMonitor
from repro.galaxy.job import GalaxyJob
from repro.galaxy.tool_xml import parse_tool_xml
from repro.gpusim.device import GPUDevice
from repro.gpusim.host import GPUHost


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

    def test_compare_jobs(self, deployment):
        job_a = deployment.run_tool("racon", {"workload": "unit"})
        job_b = deployment.run_tool("racon", {"workload": "unit"})
        meter = EnergyMeter(deployment.monitor)
        ratio = meter.compare(job_a.job_id, job_b.job_id)
        assert ratio == pytest.approx(1.0, rel=0.2)

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
