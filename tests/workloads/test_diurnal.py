"""Diurnal generator: determinism, shape, storms, scaling."""

import math

import pytest

from repro.workloads.diurnal import (
    DAY_SECONDS,
    DEFAULT_FLEET_TOOLS,
    ArrivalBatch,
    BurstStorm,
    DiurnalProfile,
    diurnal_batches,
    storm_multiplier,
)

NAN, INF = math.nan, math.inf


class TestDeterminism:
    def test_same_seed_same_batches(self):
        profile = DiurnalProfile(users=500, seed=9)
        assert diurnal_batches(profile) == diurnal_batches(profile)

    def test_different_seed_differs(self):
        a = diurnal_batches(DiurnalProfile(users=500, seed=0))
        b = diurnal_batches(DiurnalProfile(users=500, seed=1))
        assert a != b


class TestShape:
    def test_batches_sorted_and_batched_per_tick(self):
        batches = diurnal_batches(DiurnalProfile(users=2000, seed=0))
        keys = [(b.time, b.tool) for b in batches]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys))  # one batch per (tick, class)
        assert all(b.count > 0 for b in batches)

    def test_expected_volume_hit_within_tolerance(self):
        profile = DiurnalProfile(users=10_000, seed=3)
        total = sum(b.count for b in diurnal_batches(profile))
        expected = profile.expected_jobs
        assert abs(total - expected) < 0.05 * expected

    def test_day_curve_modulates_rate(self):
        """Afternoon peak ticks must carry clearly more than the 03:00
        trough (default curve: 1.65 vs 0.30)."""
        profile = DiurnalProfile(users=50_000, seed=0)
        batches = diurnal_batches(profile)

        def hour_volume(hour):
            lo, hi = hour * 3600.0, (hour + 1) * 3600.0
            return sum(b.count for b in batches if lo <= b.time < hi)

        assert hour_volume(14) > 2 * hour_volume(3)

    def test_tool_mix_follows_weights(self):
        profile = DiurnalProfile(users=50_000, seed=0)
        batches = diurnal_batches(profile)
        total = sum(b.count for b in batches)
        for index, tool in enumerate(DEFAULT_FLEET_TOOLS):
            share = sum(b.count for b in batches if b.tool == index) / total
            assert abs(share - tool.weight) < 0.02

    def test_scaled_to_reaches_target(self):
        profile = DiurnalProfile(seed=42).scaled_to(1_100_000)
        assert profile.expected_jobs >= 1_100_000
        total = sum(b.count for b in diurnal_batches(profile))
        assert total >= 1_000_000  # the ≥1M headline guarantee


class TestStorms:
    def test_storm_multiplier_windows(self):
        storms = (BurstStorm(start=100.0, duration=50.0, multiplier=10.0),
                  BurstStorm(start=120.0, duration=100.0, multiplier=2.0))
        assert storm_multiplier(storms, 99.0) == 1.0
        assert storm_multiplier(storms, 100.0) == 10.0
        assert storm_multiplier(storms, 130.0) == 20.0  # overlap multiplies
        assert storm_multiplier(storms, 160.0) == 2.0
        assert storm_multiplier(storms, 220.0) == 1.0

    def test_storm_inflates_window_volume(self):
        quiet = DiurnalProfile(users=20_000, seed=0)
        stormy = DiurnalProfile(
            users=20_000, seed=0,
            storms=(BurstStorm(start=0.25 * DAY_SECONDS, duration=3600.0,
                               multiplier=8.0),),
        )

        def window_volume(batches):
            lo = 0.25 * DAY_SECONDS
            return sum(b.count for b in batches
                       if lo <= b.time < lo + 3600.0)

        assert window_volume(diurnal_batches(stormy)) > \
            4 * window_volume(diurnal_batches(quiet))


class TestValidation:
    def test_empty_tools_rejected(self):
        with pytest.raises(ValueError):
            diurnal_batches(DiurnalProfile(tools=()))

    def test_short_day_curve_rejected(self):
        with pytest.raises(ValueError):
            diurnal_batches(DiurnalProfile(day_curve=(1.0, 2.0)))

    @pytest.mark.parametrize("build, field", [
        (lambda: DiurnalProfile(tick_seconds=0.0), "tick_seconds"),
        (lambda: DiurnalProfile(tick_seconds=NAN), "tick_seconds"),
        (lambda: DiurnalProfile(tick_seconds=-60.0), "tick_seconds"),
        (lambda: DiurnalProfile(day_curve=(1.0,) * 23 + (NAN,)),
         r"day_curve\[23\]"),
        (lambda: DiurnalProfile(day_curve=(0.0,) * 24), "day_curve"),
        (lambda: DiurnalProfile(days=INF), "days"),
        (lambda: DiurnalProfile(days=-1.0), "days"),
        (lambda: DiurnalProfile(users=-1), "users"),
        (lambda: DiurnalProfile(jobs_per_user_day=0.0).scaled_to(100),
         "jobs_per_user_day"),
        (lambda: BurstStorm(start=0.0, duration=60.0, multiplier=NAN),
         "multiplier"),
        (lambda: BurstStorm(start=0.0, duration=60.0, multiplier=INF),
         "multiplier"),
        (lambda: BurstStorm(start=NAN, duration=60.0, multiplier=2.0),
         "start"),
        (lambda: BurstStorm(start=0.0, duration=-1.0, multiplier=2.0),
         "duration"),
    ], ids=[
        "tick-zero", "tick-nan", "tick-negative", "curve-nan",
        "curve-all-zero", "days-inf", "days-negative", "users-negative",
        "jobs-per-user-zero", "storm-multiplier-nan", "storm-multiplier-inf",
        "storm-start-nan", "storm-duration-negative",
    ])
    def test_degenerate_knob_is_refused_by_name(self, build, field):
        """A knob the generator cannot turn into a day is a ValueError
        naming it when the profile or storm is built — never a
        ZeroDivisionError, an OverflowError or a silently empty day."""
        with pytest.raises(ValueError, match=field):
            build()

    def test_zero_users_is_an_empty_day(self):
        assert diurnal_batches(DiurnalProfile(users=0)) == []

    def test_batch_is_frozen_value_type(self):
        batch = ArrivalBatch(time=0.0, tool=0, count=1)
        with pytest.raises(AttributeError):
            batch.count = 2
