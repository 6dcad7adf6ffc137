"""Energy accounting over the monitor's telemetry (GYAN extension).

Speedups also buy energy: a ~2x faster Racon on a 149 W K80 and a ~50x
faster Bonito change the joules-per-sample economics dramatically.  The
paper does not evaluate energy; this extension integrates the §V-C
monitor's per-second samples into per-job, per-device energy figures
using the device power model (idle ~26 W to the 149 W board limit,
linear in SM utilisation).

The integral runs over per-tick NumPy arrays expanded from the
monitor's run tables, but its last step is a *sequential*
``.cumsum()[-1]``, not ``np.sum``: ``sum``/``add.reduce`` add
pairwise, which moves the last bit of a long total (the idle die's,
over the 165 554 samples of a default-dataset Bonito run), and
``energy_joules`` in every job's ``plugin_metrics`` is pinned to the
left-to-right sum of the trapezoid terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.monitor import GPUUsageMonitor
from repro.gpusim.device import GPUDevice
from repro.hotpath import hot_path


def power_watts(device: GPUDevice, sm_utilization):
    """The device power model at a given utilisation (see GPUDevice).

    Elementwise, so a utilisation array gives a power array.
    """
    idle = 26.0
    return idle + (device.arch.power_limit_watts - idle) * sm_utilization / 100.0


@dataclass(frozen=True)
class EnergyReport:
    """Per-job energy summary."""

    job_id: int
    duration_seconds: float
    per_device_joules: dict[int, float]

    @property
    def total_joules(self) -> float:
        """Energy across all devices for the job's duration."""
        return sum(self.per_device_joules.values())

    @property
    def mean_watts(self) -> float:
        """Average draw across the sampled window."""
        if self.duration_seconds <= 0:
            return 0.0
        return self.total_joules / self.duration_seconds


class EnergyMeter:
    """Integrates monitor samples into energy figures.

    Trapezoidal integration over each device's utilisation samples
    converted through the power model — the standard telemetry-based
    estimate (what ``nvidia-smi --query-gpu=power.draw`` polling gives
    on real hardware).
    """

    def __init__(self, monitor: GPUUsageMonitor) -> None:
        self.monitor = monitor

    @hot_path
    def job_energy(self, job_id: int) -> EnergyReport:
        """Energy of one monitored job.

        Expands the session's tick instants and each device's run table
        to per-tick arrays for this call only, so the session can keep
        growing.
        """
        session = self.monitor.session_for(job_id)
        devices = self.monitor.host.devices
        per_device = {device.minor_number: 0.0 for device in devices}
        duration = 0.0
        times = session.times
        if len(times) >= 2:
            duration = times[-1] - times[0]
            instants = np.frombuffer(times)
            dt = instants[1:] - instants[:-1]
            for device in devices:
                series = session.device_series(device.minor_number)
                if series is not None:
                    power = power_watts(device, series.utilization())
                    joules = (0.5 * (power[:-1] + power[1:]) * dt).cumsum()
                    per_device[device.minor_number] = float(joules[-1])
        return EnergyReport(
            job_id=job_id,
            duration_seconds=duration,
            per_device_joules=per_device,
        )

    def compare(self, job_a: int, job_b: int) -> float:
        """Energy ratio job_a / job_b (e.g. CPU-run vs GPU-run)."""
        energy_b = self.job_energy(job_b).total_joules
        if energy_b == 0:
            raise ZeroDivisionError(f"job {job_b} drew no measurable energy")
        return self.job_energy(job_a).total_joules / energy_b
