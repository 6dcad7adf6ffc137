"""Circuit breakers: the closed → open → half-open triangle, lazily clocked."""

import pytest

from repro.gpusim.clock import VirtualClock
from repro.resilience.breaker import (
    BreakerOpenError,
    BreakerState,
    CircuitBreaker,
)


@pytest.fixture
def clock():
    return VirtualClock()


@pytest.fixture
def breaker(clock):
    return CircuitBreaker(clock, "probe")  # trips at 3, re-trials after 30 s


class TestStateMachine:
    def test_starts_closed_and_allowing(self, breaker):
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allows()

    def test_failures_below_threshold_stay_closed(self, breaker):
        assert breaker.record_failure() is False
        assert breaker.record_failure() is False
        assert breaker.state is BreakerState.CLOSED

    def test_threshold_trips_open(self, breaker):
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.record_failure() is True
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allows()

    def test_success_resets_the_consecutive_count(self, breaker):
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED

    def test_open_becomes_half_open_after_timeout(self, breaker, clock):
        for _ in range(3):
            breaker.record_failure()
        clock.advance(29.999)
        assert breaker.state is BreakerState.OPEN
        clock.advance(0.001)
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.allows()

    def test_half_open_success_closes(self, breaker, clock):
        for _ in range(3):
            breaker.record_failure()
        clock.advance(30.0)
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_failure_reopens_for_a_full_timeout(self, breaker, clock):
        for _ in range(3):
            breaker.record_failure()
        clock.advance(30.0)
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.record_failure() is True
        assert breaker.state is BreakerState.OPEN
        assert breaker.retry_at == pytest.approx(60.0)

    def test_no_timers_registered(self, breaker, clock):
        # Lazy advancement is the whole point: the breaker must add
        # nothing to the clock's heap (gyan-race stays quiet).
        for _ in range(3):
            breaker.record_failure()
        assert clock.pending_count() == 0


class TestCall:
    def test_open_fast_fails_with_retry_time(self, breaker, clock):
        """An open breaker refuses the call; the error a caller raises
        then names the breaker and when to retry."""
        clock.advance(5.0)
        for _ in range(3):
            breaker.record_failure()
        assert not breaker.allows()
        error = BreakerOpenError(breaker.name, breaker.retry_at)
        assert error.breaker_name == "probe"
        assert error.retry_at == pytest.approx(35.0)
        assert "t=35" in str(error)


class TestObservability:
    def test_transitions_recorded_in_order(self, breaker, clock):
        for _ in range(3):
            breaker.record_failure()
        clock.advance(30.0)
        _ = breaker.state
        breaker.record_success()
        assert [(t, old.value, new.value) for t, old, new
                in breaker.transitions] == [
            (0.0, "closed", "open"),
            (30.0, "open", "half_open"),
            (30.0, "half_open", "closed"),
        ]

    def test_on_transition_hook_fires(self, clock):
        seen = []
        breaker = CircuitBreaker(
            clock, "hooked",
            on_transition=lambda now, old, new: seen.append((now, old, new)),
        )
        for _ in range(3):
            breaker.record_failure()
        assert seen == [(0.0, BreakerState.CLOSED, BreakerState.OPEN)]
