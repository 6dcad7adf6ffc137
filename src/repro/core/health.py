"""Device health tracking: quarantine flaky GPUs, re-admit after cool-down.

The mapper's availability logic (Pseudocode 1) only sees the *instant*:
a device that crashed a job two seconds ago but currently shows an empty
process list looks perfectly available.  Production schedulers
(Slurm's drain state, Kubernetes' node taints) solve this with health
history: repeated errors within a window quarantine the device; after a
cool-down with no new errors it is re-admitted.

:class:`DeviceHealthTracker` implements that policy over the virtual
clock.  Device identity is the GPU minor number *as a string*, matching
the ``nvidia-smi`` snapshot keys the mapper already handles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.gpu_usage import GpuUsageSnapshot
from repro.gpusim import footprint as _footprint


@dataclass(frozen=True)
class HealthEvent:
    """One recorded health observation for a device."""

    time: float
    device_id: str
    kind: str  # "error", "device_lost", "quarantine", "readmit"
    note: str = ""


#: Errors within :data:`ERROR_WINDOW_S` that quarantine a device.  A
#: device loss quarantines immediately regardless of the count.
ERROR_THRESHOLD = 3
#: Sliding window (virtual seconds) over which errors are counted.
ERROR_WINDOW_S = 60.0
#: Quarantine duration.  Each *new* error while quarantined renews the
#: sentence from that error's time.
COOLDOWN_S = 120.0


@dataclass
class DeviceHealthTracker:
    """Error-threshold quarantine with cool-down re-admission."""

    events: list[HealthEvent] = field(default_factory=list)
    _error_times: dict[str, list[float]] = field(default_factory=dict)
    _quarantined_until: dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def record_error(self, device_id: str, now: float, note: str = "") -> bool:
        """Count one error against ``device_id``; True if it quarantines.

        The error both *counts toward* the threshold and, when the device
        is already quarantined, *renews* the cool-down — a device that
        keeps erroring never gets re-admitted.
        """
        device_id = str(device_id)
        if _footprint._RECORDER is not None:
            _footprint._RECORDER.write("health")
        self.events.append(HealthEvent(now, device_id, "error", note))
        times = self._error_times.setdefault(device_id, [])
        times.append(now)
        self._error_times[device_id] = [
            t for t in times if t > now - ERROR_WINDOW_S
        ]
        already = self.is_quarantined(device_id, now)
        if already or len(self._error_times[device_id]) >= ERROR_THRESHOLD:
            self._quarantine(device_id, now, note or "error threshold reached")
            return not already
        return False

    def record_device_lost(self, device_id: str, now: float, note: str = "") -> None:
        """A device fell off the bus: quarantine immediately."""
        device_id = str(device_id)
        if _footprint._RECORDER is not None:
            _footprint._RECORDER.write("health")
        self.events.append(HealthEvent(now, device_id, "device_lost", note))
        self._quarantine(device_id, now, note or "device lost (XID)")

    def _quarantine(self, device_id: str, now: float, note: str) -> None:
        until = now + COOLDOWN_S
        if self._quarantined_until.get(device_id, -1.0) < until:
            self._quarantined_until[device_id] = until
            self.events.append(HealthEvent(now, device_id, "quarantine", note))

    # ------------------------------------------------------------------ #
    # querying
    # ------------------------------------------------------------------ #
    def is_quarantined(self, device_id: str, now: float) -> bool:
        """Whether ``device_id`` is still serving its cool-down at ``now``."""
        if _footprint._RECORDER is not None:
            _footprint._RECORDER.read("health")
        until = self._quarantined_until.get(str(device_id))
        if until is None:
            return False
        if now >= until:
            # Cool-down served: re-admit lazily at observation time — a
            # mutation, so it counts as a write for conflict analysis.
            if _footprint._RECORDER is not None:
                _footprint._RECORDER.write("health")
            del self._quarantined_until[str(device_id)]
            self.events.append(
                HealthEvent(now, str(device_id), "readmit", "cool-down served")
            )
            return False
        return True

    def quarantined_ids(self, now: float) -> list[str]:
        """Device ids currently quarantined, sorted."""
        return sorted(
            gid for gid in list(self._quarantined_until) if self.is_quarantined(gid, now)
        )

    def state_key(self, now: float) -> tuple:
        """Hashable abstraction of the tracker's state at ``now``.

        Model checking needs to recognise when two fault schedules leave
        the resilience machinery in equivalent states; this key —
        quarantined ids plus each device's recent-error count — is that
        equivalence, deliberately blind to absolute event times.
        """
        if _footprint._RECORDER is not None:
            _footprint._RECORDER.read("health")
        quarantined = tuple(self.quarantined_ids(now))
        error_counts = tuple(
            sorted(
                (gid, len([t for t in times if t > now - ERROR_WINDOW_S]))
                for gid, times in self._error_times.items()
            )
        )
        return (quarantined, error_counts)

    def filter_snapshot(self, snapshot: GpuUsageSnapshot, now: float) -> GpuUsageSnapshot:
        """A copy of ``snapshot`` with quarantined devices removed.

        This is the hook the mapper uses: allocation strategies never see
        a quarantined device, so every strategy skips them uniformly.
        """
        bad = set(self.quarantined_ids(now))
        if not bad:
            return snapshot
        return GpuUsageSnapshot(
            available_gpus=[g for g in snapshot.available_gpus if g not in bad],
            all_gpus=[g for g in snapshot.all_gpus if g not in bad],
            proc_gpu_dict={
                g: pids for g, pids in snapshot.proc_gpu_dict.items() if g not in bad
            },
            fb_used_mib={
                g: v for g, v in snapshot.fb_used_mib.items() if g not in bad
            },
            fb_free_mib={
                g: v for g, v in snapshot.fb_free_mib.items() if g not in bad
            },
            gpu_utilization={
                g: v for g, v in snapshot.gpu_utilization.items() if g not in bad
            },
        )
