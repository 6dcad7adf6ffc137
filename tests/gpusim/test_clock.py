"""Virtual clock and timeline behaviour."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.gpusim.clock import HORIZON, Timeline, VirtualClock
from repro.gpusim.errors import ClockError


class TestVirtualClock:
    def test_starts_at_epoch(self):
        assert VirtualClock().now == 0.0
        assert VirtualClock(epoch=10.0).now == 10.0

    def test_advance_moves_forward(self):
        clock = VirtualClock()
        assert clock.advance(2.5) == 2.5
        assert clock.advance(0.5) == 3.0
        assert clock.now == 3.0

    def test_advance_to_absolute(self):
        clock = VirtualClock()
        clock.advance_to(7.0)
        assert clock.now == 7.0

    def test_zero_advance_is_legal(self):
        clock = VirtualClock()
        clock.advance(0.0)
        assert clock.now == 0.0

    def test_negative_advance_rejected(self):
        clock = VirtualClock()
        with pytest.raises(ClockError):
            clock.advance(-1.0)

    def test_backwards_advance_to_rejected(self):
        clock = VirtualClock()
        clock.advance(5.0)
        with pytest.raises(ClockError):
            clock.advance_to(4.0)

    def test_callbacks_fire_in_order(self):
        clock = VirtualClock()
        fired = []
        clock.call_at(3.0, lambda now: fired.append(("c", now)))
        clock.call_at(1.0, lambda now: fired.append(("a", now)))
        clock.call_at(2.0, lambda now: fired.append(("b", now)))
        clock.advance(5.0)
        assert fired == [("a", 1.0), ("b", 2.0), ("c", 3.0)]

    def test_callback_sees_its_own_instant(self):
        clock = VirtualClock()
        seen = []
        clock.call_at(1.0, lambda now: seen.append(now))
        clock.advance(10.0)
        assert seen == [1.0]
        assert clock.now == 10.0

    def test_callbacks_beyond_horizon_stay_pending(self):
        clock = VirtualClock()
        fired = []
        clock.call_at(100.0, lambda now: fired.append(now))
        clock.advance(5.0)
        assert fired == []

    def test_rearm_from_callback(self):
        """A callback may schedule the next one (how the monitor samples)."""
        clock = VirtualClock()
        ticks = []

        def tick(now):
            ticks.append(now)
            if now < 5.0:
                clock.call_at(now + 1.0, tick)

        clock.call_at(1.0, tick)
        clock.advance(10.0)
        assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]

    @pytest.mark.parametrize("when", [2.0**53, 1e16, math.inf, math.nan])
    def test_instants_stop_below_the_horizon(self, when):
        """From 2**53 s on ``t + 1.0 == t``, and a NaN destination used
        to leave the clock silently where it was: both are refused, and
        nothing fires."""
        clock = VirtualClock()
        clock.advance(5.0)
        fired = []
        clock.call_at(6.0, fired.append)
        with pytest.raises(ClockError, match=r"below 2\*\*53 s"):
            clock.advance_to(when)
        with pytest.raises(ClockError):
            clock.advance(when - 5.0)
        assert clock.now == 5.0 and fired == []
        assert clock.advance_to(math.nextafter(HORIZON, 0.0)) == HORIZON - 1.0
        assert fired == [6.0]

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), max_size=30))
    def test_monotone_under_any_advance_sequence(self, deltas):
        clock = VirtualClock()
        previous = clock.now
        for delta in deltas:
            clock.advance(delta)
            assert clock.now >= previous
            previous = clock.now


class TestTimeline:
    def test_records_and_iterates_chronologically(self):
        timeline = Timeline()
        timeline.record(2.0, "b")
        timeline.record(1.0, "a")
        timeline.record(3.0, "c")
        assert [e.label for e in timeline] == ["a", "b", "c"]

    def test_stable_order_for_equal_times(self):
        timeline = Timeline()
        first = timeline.record(1.0, "first")
        second = timeline.record(1.0, "second")
        ordered = list(timeline)
        assert ordered.index(first) < ordered.index(second)

    @given(st.lists(st.floats(min_value=0, max_value=100), max_size=50))
    def test_iteration_always_sorted(self, times):
        timeline = Timeline()
        for i, t in enumerate(times):
            timeline.record(t, str(i))
        ordered = [e.time for e in timeline]
        assert ordered == sorted(ordered)

    def test_interleaved_inserts_stay_sorted(self):
        """Regression: an out-of-order record used to leave the sorted
        flag set once a later in-order append was seen, so queries could
        observe a partially sorted list.  Interleave both patterns."""
        timeline = Timeline()
        for when in (10.0, 5.0, 12.0, 7.0, 12.0, 6.0, 20.0, 1.0):
            timeline.record(when, f"e{when}")
        ordered = [e.time for e in timeline]
        assert ordered == sorted(ordered)


class TestSpanListeners:
    def test_spans_partition_the_advance(self):
        """Callbacks split an advance into spans; between two firings
        simulated state cannot change, which is what lets the monitor
        sample whole spans in bulk."""
        clock = VirtualClock()
        spans = []
        clock.add_span_listener(lambda s, e, closed: spans.append((s, e, closed)))
        clock.call_at(2.0, lambda now: None)
        clock.call_at(4.0, lambda now: None)
        clock.advance(5.0)
        assert spans == [
            (0.0, 2.0, False),
            (2.0, 4.0, False),
            (4.0, 5.0, True),
        ]

    def test_plain_advance_is_one_closed_span(self):
        clock = VirtualClock()
        spans = []
        clock.add_span_listener(lambda s, e, closed: spans.append((s, e, closed)))
        clock.advance(7.5)
        assert spans == [(0.0, 7.5, True)]

    def test_removed_listener_stops_receiving(self):
        clock = VirtualClock()
        spans = []

        def listener(start, end, closed):
            spans.append((start, end, closed))

        clock.add_span_listener(listener)
        clock.advance(1.0)
        clock.remove_span_listener(listener)
        clock.remove_span_listener(listener)  # absent: no-op
        clock.advance(1.0)
        assert spans == [(0.0, 1.0, True)]
