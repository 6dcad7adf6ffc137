"""Virtual time for the simulator.

The paper's evaluation spans six orders of magnitude of wall time — from
~1.7 s best-case Racon window units to >210 h Bonito CPU basecalling runs.
Re-running those on real hardware is neither possible here nor necessary:
GYAN's *decisions* depend on device state at submit time, and the
*measurements* depend on a timing model.  A virtual clock lets both be
exercised deterministically and instantly.

All durations are in seconds (float).  The clock only moves forward,
and only to finite instants below :data:`HORIZON` (2**53 s).

Performance notes (see ``docs/performance.md``):

* :class:`VirtualClock` exposes *span listeners*: between two consecutive
  callback firings the simulation is quiescent (no simulated state can
  change), so a listener observing ``(start, end]`` spans can aggregate
  per-second telemetry in bulk instead of scheduling one callback per
  simulated second.  This is what lets the §V-C usage monitor follow a
  >210 h Bonito run without 756k heap operations.
* :class:`Timeline` records in O(1): in-order appends extend the sorted
  prefix directly, out-of-order records land in an unsorted pending
  buffer that the next iteration merges once.
"""

from __future__ import annotations

import heapq
import itertools
import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.gpusim import footprint as _footprint
from repro.gpusim.errors import ClockError
from repro.hotpath import hot_path


@dataclass(frozen=True, order=True, slots=True)
class TimelineEvent:
    """A timestamped annotation on the simulation timeline.

    Events are ordered by time; ``seq`` breaks ties in insertion order so
    that sorting is stable and deterministic.
    """

    time: float
    seq: int
    label: str = field(compare=False)
    payload: Any = field(default=None, compare=False)


#: Chronological sort key of the merge.  ``seq`` is strictly increasing,
#: so ties at the same timestamp keep insertion order.  ``attrgetter``
#: keeps the key extraction in C during the merge sort.
_event_key = operator.attrgetter("time", "seq")


class Timeline:
    """An append-only, time-ordered event log.

    Used by the GPU usage monitor and the job lifecycle to record what
    happened when, in virtual time.  Iteration yields events in
    chronological order even if they were appended out of order (which can
    happen when several simulated processes interleave).

    ``record`` is O(1): in-order appends (the overwhelmingly common case)
    extend the sorted prefix directly; out-of-order records accumulate in
    an unsorted pending buffer, merged once by the next iteration
    (timsort over a mostly-sorted list).
    """

    def __init__(self) -> None:
        self._events: list[TimelineEvent] = []
        #: Out-of-order records awaiting the next lazy merge.  Once this
        #: is non-empty every new record lands here (cheap append) until
        #: a reader forces :meth:`_merge_pending`.
        self._pending: list[TimelineEvent] = []
        self._counter = itertools.count()

    @hot_path
    def record(self, time: float, label: str, payload: Any = None) -> TimelineEvent:
        """Append an event at ``time`` and return it."""
        if _footprint._RECORDER is not None:
            _footprint._RECORDER.write("timeline")
        event = TimelineEvent(time=time, seq=next(self._counter), label=label, payload=payload)
        events = self._events
        if self._pending or (events and time < events[-1].time):
            # Out of order (or an unmerged batch already exists): defer.
            # The merge is amortised across the whole batch instead of
            # paying a list.insert per record.
            self._pending.append(event)
        else:
            events.append(event)
        return event

    def _merge_pending(self) -> None:
        """Fold the pending buffer into the sorted events (at most once
        per batch of out-of-order records)."""
        if not self._pending:
            return
        events = self._events + self._pending
        events.sort(key=_event_key)
        self._events = events
        self._pending.clear()

    def __iter__(self) -> Iterator[TimelineEvent]:
        self._merge_pending()
        return iter(self._events)


class TimerHandle:
    """A scheduled callback, returned by :meth:`VirtualClock.call_at`."""

    __slots__ = ("when", "callback", "key")

    def __init__(
        self,
        when: float,
        callback: Callable[[float], None],
        key: str = "",
    ) -> None:
        self.when = when
        self.callback = callback
        #: Explicit tie-break key; see :meth:`VirtualClock.call_at`.
        self.key = key


#: Every instant the clock reaches lies below this (2**53 s, ~285 My): up
#: to it one second is a whole number of ulps, so a 1 s tick walk always
#: moves; at it ``t + 1.0 == t``.
HORIZON = float(1 << 53)


#: A quiescent-span observer: ``listener(start, end, closed)`` is invoked
#: for every interval the clock traverses without any callback firing
#: inside it.  ``closed`` is True when the span includes its ``end``
#: instant (the destination of an ``advance``), False when a callback is
#: about to fire at ``end`` (observers must not consume ``end`` yet — the
#: callback may mutate simulated state at that very instant).
SpanListener = Callable[[float, float, bool], None]


class VirtualClock:
    """A monotone simulated clock with optional scheduled callbacks.

    The clock starts at 0.0.  :meth:`advance` moves
    time forward by a delta and :meth:`advance_to` moves to an absolute
    instant; both fire any callbacks scheduled in the traversed interval,
    in timestamp order.  Moving backwards, or to an instant that is not
    finite and below :data:`HORIZON`, raises :class:`ClockError`.

    Scheduled callbacks are how fault injectors and retry backoff act
    *during* a simulated tool execution.  High-frequency observers (the
    per-second GPU hardware usage monitor, paper §V-C) should not
    schedule one callback per sample: they register a *span listener*
    (:meth:`add_span_listener`) and aggregate every quiescent interval in
    bulk — the simulated state is constant between callback firings by
    construction, so bulk sampling is exact.
    """

    def __init__(self) -> None:
        self._now = 0.0
        #: Heap entries are ``(when, key, seq, handle)``: same-instant
        #: callbacks fire ordered by explicit tie-break key first, then
        #: strictly by registration order — the determinism contract
        #: gyan-race's DET403 rule and the clock property tests pin.
        self._pending: list[tuple[float, str, int, TimerHandle]] = []
        self._counter = itertools.count()
        self._span_listeners: list[SpanListener] = []

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @hot_path
    def advance(self, delta: float) -> float:
        """Move time forward by ``delta`` seconds and return the new time."""
        if delta < 0:
            raise ClockError(f"cannot advance by negative delta {delta}")
        return self.advance_to(self._now + delta)

    @hot_path
    def advance_to(self, when: float) -> float:
        """Move time forward to the absolute instant ``when``.

        Callbacks scheduled at or before ``when`` fire in order, and each
        callback observes the clock already advanced to its own scheduled
        instant (so a sampling callback reading ``clock.now`` sees its
        sample timestamp, not the final destination time).

        Span listeners see every quiescent interval in between: an open
        span ``(now, at)`` before each callback at ``at``, and a final
        closed span ``(now, when]`` once no callback remains at or before
        ``when``.
        """
        if when < self._now:
            raise ClockError(f"cannot move clock backwards: {when} < {self._now}")
        if not when < HORIZON:  # NaN too
            raise ClockError(f"cannot move clock to t={when}: instants stop below 2**53 s")
        pending = self._pending
        while pending and pending[0][0] <= when:
            at, _key, _seq, handle = heapq.heappop(pending)
            # A callback scheduled in the past fires "now" rather than
            # rewinding the clock.
            at = max(self._now, at)
            if self._span_listeners:
                for listener in self._span_listeners:
                    listener(self._now, at, False)
            self._now = at
            handle.callback(self._now)
        if self._span_listeners:
            for listener in self._span_listeners:
                listener(self._now, when, True)
        # A re-entrant advance inside a callback may already have moved
        # time beyond ``when``; never rewind.
        self._now = max(self._now, when)
        return self._now

    def call_at(
        self,
        when: float,
        callback: Callable[[float], None],
        key: str = "",
    ) -> TimerHandle:
        """Schedule ``callback(now)`` to fire when time reaches ``when``.

        Same-instant callbacks fire ordered by ``key`` first, then by
        registration order.  An explicit ``key`` declares the intended
        order of a timestamp tie as part of the caller's contract —
        gyan-race treats keyed ties as pinned and only permutes unkeyed
        ones (see ``docs/determinism.md``).
        """
        handle = TimerHandle(float(when), callback, key=key)
        heapq.heappush(self._pending, (handle.when, key, next(self._counter), handle))
        return handle

    def add_span_listener(self, listener: SpanListener) -> None:
        """Register a quiescent-span observer (idempotent per listener)."""
        if listener not in self._span_listeners:
            self._span_listeners.append(listener)

    def remove_span_listener(self, listener: SpanListener) -> None:
        """Unregister a span observer (no-op when absent)."""
        try:
            self._span_listeners.remove(listener)
        except ValueError:
            pass
