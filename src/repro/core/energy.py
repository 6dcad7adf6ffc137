"""Energy accounting over the monitor's telemetry (GYAN extension).

Speedups also buy energy: a ~2x faster Racon on a 149 W K80 and a ~50x
faster Bonito change the joules-per-sample economics dramatically.  The
paper does not evaluate energy; this extension integrates the §V-C
monitor's per-second samples into per-job, per-device energy figures
using the device power model (idle ~26 W to the 149 W board limit,
linear in SM utilisation).

``energy_joules`` in every job's ``plugin_metrics`` is pinned to the
trapezoid over the samples summed left to right, one float addition per
tick pair.  The integral walks the session's run tables and its tick
walk (start, ``first_due``, ``walk_len`` one-second ticks, stop) and
never expands them per tick.  Inside one utilisation run, on a stretch
where every walk step is exact (:func:`~repro.core.monitor.exact_steps`,
the rule the monitor counts its ticks by), every term is the same float
``c = p * 1.0`` (``p`` the run's power); and while the running total
stays in one binade, every ``total += c`` adds the same rounded
increment unless ``c`` falls exactly half an ulp off the grid.
:func:`_uniform_adds` counts how far that holds, so such a stretch costs
a few exact float operations however many ticks it spans.  Everything
that can round differently — the first and last pair, a run boundary, a
walk or total crossing into the next binade, a tie from an odd total —
is one ordinary addition, as in the loop.  The CLI's Bonito job (14 609
one-second ticks in 1 + 2 runs) comes to ~35 counted stretches per
device.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from repro.core.monitor import INTERVAL, DeviceSeries, GPUUsageMonitor, MonitoredJob, exact_steps
from repro.gpusim.device import GPUDevice
from repro.hotpath import hot_path


def power_watts(device: GPUDevice, sm_utilization):
    """The device power model at a given utilisation (see GPUDevice)."""
    idle = 26.0
    return idle + (device.arch.power_limit_watts - idle) * sm_utilization / 100.0


_TWO53 = float(1 << 53)
_MIN_NORMAL = sys.float_info.min
#: Fewer additions than this are cheaper taken one by one than counted.
_MIN_JUMP = 8


def _uniform_adds(value: float, step: float, n: int) -> tuple[int, float]:
    """How the first of ``n`` additions ``value += step`` go: ``(k, d)``.

    Each of the next ``k`` additions adds exactly ``d``, so the loop
    leaves ``value + k * d`` (an exact float) after them; ``k == 0``
    when the next addition must be taken as it is.

    ``value`` is an integer multiple ``a`` of ``u = ulp(value)`` and
    ``step = w * u + r`` with ``0 <= r < u``.  While the exact sum stays
    below ``2**53 * u`` (the top of the binade), round-to-nearest puts
    it on ``a + w`` (``r < u/2``) or ``a + w + 1`` (``r > u/2``) every
    time.  At a tie (``r == u/2``) it picks the even one of the two,
    which is the same choice every time once ``a`` is even.  ``a``,
    ``w`` and the step count are integers below ``2**53``, so the float
    arithmetic on them here is exact.
    """
    if not _MIN_NORMAL <= value < math.inf:
        return 0, 0.0
    unit = math.ulp(value)
    if not 0.0 <= step < _TWO53 * unit:
        return 0, 0.0
    rem = math.fmod(step, unit)
    whole = (step - rem) / unit
    first = value / unit
    half = 0.5 * unit
    if rem < half:
        units = whole
    elif rem > half:
        units = whole + 1.0
    elif first % 2.0 == 0.0:
        units = whole + whole % 2.0
    else:
        return 0, 0.0
    if units == 0.0:
        return n, 0.0
    # The k-th addition (k from 0) stays in the binade while
    # a + k * units + w + 1 <= 2**53.
    k = (_TWO53 - 1.0 - whole - first) // units + 1.0
    if k < 1.0:
        return 0, 0.0
    return min(n, int(k)), units * unit


def _add_repeated(total: float, term: float, n: int) -> float:
    """``total`` after the loop ``for _ in range(n): total += term``.

    A jump ends at a binade's top, so the additions after one are taken
    plainly until the total has crossed into the next binade.
    """
    while n:
        if n >= _MIN_JUMP:
            k, increment = _uniform_adds(total, term, n)
            if k >= _MIN_JUMP:
                total += k * increment
                n -= k
        plain = min(n, _MIN_JUMP)
        for _ in range(plain):
            total += term
        n -= plain
    return total


def _trapezoid(session: MonitoredJob, series: DeviceSeries, device: GPUDevice) -> float:
    """One device's trapezoid over a session of at least two ticks.

    Tick ``i`` is the start (``i == 0``), a walk tick (``1 <= i <=
    walk_len``) or the stop; ``left`` counts the ticks after tick ``i``
    that still belong to its run.
    """
    last = session.tick_count - 1
    walk_len = session.walk_len
    runs = zip(series.run_util, series.run_lens)
    util, left = next(runs)
    left -= 1
    watts = power_watts(device, util)
    time = session.started_at
    total = 0.0
    i = 0
    while i < last:
        if left >= _MIN_JUMP and walk_len - i >= _MIN_JUMP:
            # A jump ends at a run's end, the walk's end or its binade's
            # top: the pair after it is always taken as it is.
            k = min(exact_steps(time), walk_len - i, left)
            if k:
                total = _add_repeated(total, 0.5 * (watts + watts) * INTERVAL, k)
                time += k
                left -= k
                i += k
                if i == last:
                    break
        if i < walk_len:
            after_time = time + INTERVAL
        else:
            after_time = session.stopped_at
        if left:
            left -= 1
            after_watts = watts
        else:
            util, left = next(runs)
            left -= 1
            after_watts = power_watts(device, util)
        total += 0.5 * (watts + after_watts) * (after_time - time)
        time = after_time
        watts = after_watts
        i += 1
    return total


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

        Reads the session's run tables and tick walk as they stand, so
        the session can keep growing.
        """
        session = self.monitor.session_for(job_id)
        devices = self.monitor.host.devices
        per_device = {device.minor_number: 0.0 for device in devices}
        duration = 0.0
        if session.tick_count >= 2:
            duration = session.last_time - session.started_at
            for device in devices:
                series = session.device_series(device.minor_number)
                if series is not None:
                    per_device[device.minor_number] = _trapezoid(session, series, device)
        return EnergyReport(
            job_id=job_id,
            duration_seconds=duration,
            per_device_joules=per_device,
        )
