"""Virtual-clock circuit breakers for NVML probes and runner launches.

A breaker sits in front of a flaky dependency and stops hammering it
once it has clearly failed: after :data:`FAILURE_THRESHOLD` consecutive
failures the breaker *opens* and every call fails fast with
:class:`BreakerOpenError` (no retry storm, no burned backoff budget).
After :data:`RESET_TIMEOUT_S` virtual seconds it moves to *half-open* and
lets a single trial call through; success closes it again, failure
re-opens it for another timeout.

The state machine is the classic closed → open → half-open triangle,
advanced lazily off the deployment's :class:`~repro.gpusim.clock.
VirtualClock` — no timers are registered, so breakers add nothing to
the clock's heap and cannot perturb schedule permutations (gyan-race
stays quiet).  Transitions are recorded (time, from, to) for tests and
exported through the ``gyan_overload_breaker_transitions_total``
counter plus a tracer instant when wired by the orchestrator.
"""

from __future__ import annotations

import enum
from typing import Callable

#: Consecutive failures that trip a breaker open.
FAILURE_THRESHOLD = 3
#: Virtual seconds a breaker stays open before allowing a half-open trial.
RESET_TIMEOUT_S = 30.0


class BreakerState(str, enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class BreakerOpenError(RuntimeError):
    """Fast-fail raised while a breaker is open (retry after ``retry_at``)."""

    def __init__(self, name: str, retry_at: float) -> None:
        super().__init__(
            f"circuit breaker {name!r} is open (retry at t={retry_at:g})"
        )
        self.breaker_name = name
        self.retry_at = retry_at


class CircuitBreaker:
    """Closed → open → half-open breaker on the virtual clock.

    Parameters
    ----------
    clock:
        Anything with a ``now`` attribute (the deployment's
        ``VirtualClock``).  Time only ever moves through it.
    on_transition:
        Optional ``fn(now, old_state, new_state)`` hook; the
        orchestrator uses it to bump metrics, emit tracer instants, and
        append :class:`~repro.core.health.HealthEvent` entries so
        breaker trips show up next to quarantine history.
    """

    def __init__(
        self,
        clock,
        name: str,
        on_transition: Callable[[float, BreakerState, BreakerState], None]
        | None = None,
    ) -> None:
        self.clock = clock
        self.name = name
        self.on_transition = on_transition
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        #: (time, from, to) triples, in order — the auditable history.
        self.transitions: list[tuple[float, BreakerState, BreakerState]] = []

    # -- state ---------------------------------------------------------

    @property
    def state(self) -> BreakerState:
        """Current state, advancing OPEN → HALF_OPEN lazily off the clock."""
        if (
            self._state is BreakerState.OPEN
            and self.clock.now >= self._opened_at + RESET_TIMEOUT_S
        ):
            self._transition(BreakerState.HALF_OPEN)
        return self._state

    @property
    def retry_at(self) -> float:
        """Earliest virtual time a half-open trial will be allowed."""
        return self._opened_at + RESET_TIMEOUT_S

    def allows(self) -> bool:
        """Would a call be let through right now?"""
        return self.state is not BreakerState.OPEN

    # -- outcome recording --------------------------------------------

    def record_success(self) -> None:
        self._consecutive_failures = 0
        if self.state is not BreakerState.CLOSED:
            self._transition(BreakerState.CLOSED)

    def record_failure(self) -> bool:
        """Record one failure; return True when this trip *opened* the breaker."""
        state = self.state
        if state is BreakerState.HALF_OPEN:
            # The trial call failed: straight back to open for another
            # full timeout.
            self._open()
            return True
        self._consecutive_failures += 1
        if (
            state is BreakerState.CLOSED
            and self._consecutive_failures >= FAILURE_THRESHOLD
        ):
            self._open()
            return True
        return False

    # -- internals -----------------------------------------------------

    def _open(self) -> None:
        self._opened_at = self.clock.now
        self._consecutive_failures = 0
        self._transition(BreakerState.OPEN)

    def _transition(self, new_state: BreakerState) -> None:
        old = self._state
        if old is new_state:
            return
        self._state = new_state
        now = self.clock.now
        self.transitions.append((now, old, new_state))
        if self.on_transition is not None:
            self.on_transition(now, old, new_state)
