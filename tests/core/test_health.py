"""DeviceHealthTracker: quarantine thresholds, cool-down, snapshot filtering."""

from __future__ import annotations

from repro.core.gpu_usage import GpuUsageSnapshot
from repro.core.health import DeviceHealthTracker


def _kinds(tracker, device_id=None):
    return [
        e.kind
        for e in tracker.events
        if device_id is None or e.device_id == device_id
    ]


class TestThresholdQuarantine:
    def test_below_threshold_stays_healthy(self):
        tracker = DeviceHealthTracker()
        assert tracker.record_error("0", now=1.0) is False
        assert tracker.record_error("0", now=2.0) is False
        assert not tracker.is_quarantined("0", now=3.0)

    def test_threshold_quarantines(self):
        tracker = DeviceHealthTracker()
        tracker.record_error("0", now=1.0)
        tracker.record_error("0", now=2.0)
        assert tracker.record_error("0", now=3.0) is True
        assert tracker.is_quarantined("0", now=3.0)
        assert "quarantine" in _kinds(tracker, "0")

    def test_errors_count_per_device(self):
        tracker = DeviceHealthTracker()
        tracker.record_error("0", now=1.0)
        tracker.record_error("0", now=1.2)
        tracker.record_error("1", now=1.5)
        assert not tracker.is_quarantined("0", now=2.0)
        assert not tracker.is_quarantined("1", now=2.0)

    def test_window_expiry_forgets_old_errors(self):
        tracker = DeviceHealthTracker()  # three errors within 60 s
        tracker.record_error("0", now=0.0)
        tracker.record_error("0", now=1.0)
        # The first two errors age out before the next pair arrives.
        assert tracker.record_error("0", now=100.0) is False
        assert tracker.record_error("0", now=101.0) is False
        assert not tracker.is_quarantined("0", now=101.0)

    def test_int_device_ids_are_normalised(self):
        tracker = DeviceHealthTracker()
        for now in (1.0, 1.0, 1.0):
            tracker.record_error(0, now=now)
        assert tracker.is_quarantined("0", now=1.0)
        assert tracker.is_quarantined(0, now=1.0)


class TestDeviceLost:
    def test_quarantines_immediately(self):
        tracker = DeviceHealthTracker()
        tracker.record_device_lost("1", now=5.0, note="XID 79")
        assert tracker.is_quarantined("1", now=5.0)
        assert _kinds(tracker, "1") == ["device_lost", "quarantine"]


class TestCooldown:
    def test_readmit_after_cooldown(self):
        tracker = DeviceHealthTracker()  # 120 s cool-down
        tracker.record_device_lost("0", now=10.0)
        assert tracker.is_quarantined("0", now=129.9)
        assert not tracker.is_quarantined("0", now=130.0)
        assert "readmit" in _kinds(tracker, "0")

    def test_errors_while_quarantined_renew_cooldown(self):
        tracker = DeviceHealthTracker()
        tracker.record_device_lost("0", now=0.0)
        # A single error at t=100 renews the sentence to t=220.
        assert tracker.record_error("0", now=100.0) is False  # already in
        assert tracker.is_quarantined("0", now=150.0)
        assert tracker.is_quarantined("0", now=219.9)
        assert not tracker.is_quarantined("0", now=220.0)

    def test_readmit_is_lazy_and_recorded_once(self):
        tracker = DeviceHealthTracker()
        tracker.record_device_lost("0", now=0.0)
        assert not tracker.is_quarantined("0", now=150.0)
        assert not tracker.is_quarantined("0", now=151.0)
        assert _kinds(tracker, "0").count("readmit") == 1


class TestSnapshotFiltering:
    def _snapshot(self):
        return GpuUsageSnapshot(
            available_gpus=["0"],
            all_gpus=["0", "1"],
            proc_gpu_dict={"1": ["4242"]},
            fb_used_mib={"0": 0, "1": 2048},
            fb_free_mib={"0": 11441, "1": 9393},
            gpu_utilization={"0": 0, "1": 63},
        )

    def test_quarantined_device_disappears_everywhere(self):
        tracker = DeviceHealthTracker()
        tracker.record_device_lost("1", now=0.0)
        filtered = tracker.filter_snapshot(self._snapshot(), now=1.0)
        assert filtered.all_gpus == ["0"]
        assert filtered.available_gpus == ["0"]
        assert "1" not in filtered.proc_gpu_dict
        assert "1" not in filtered.fb_used_mib
        assert "1" not in filtered.fb_free_mib
        assert "1" not in filtered.gpu_utilization

    def test_no_quarantine_returns_snapshot_unchanged(self):
        tracker = DeviceHealthTracker()
        snapshot = self._snapshot()
        assert tracker.filter_snapshot(snapshot, now=1.0) is snapshot

    def test_quarantined_ids_sorted(self):
        tracker = DeviceHealthTracker()
        tracker.record_device_lost("3", now=0.0)
        tracker.record_device_lost("1", now=0.0)
        assert tracker.quarantined_ids(now=1.0) == ["1", "3"]
