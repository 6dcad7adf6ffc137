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

* :meth:`VirtualClock.call_at` / :meth:`VirtualClock.call_later` return a
  :class:`TimerHandle`; cancelled timers are dropped lazily when they
  surface at the top of the heap, so cancellation is O(1) and never
  rebuilds the queue.
* :class:`VirtualClock` exposes *span listeners*: between two consecutive
  callback firings the simulation is quiescent (no simulated state can
  change), so a listener observing ``(start, end]`` spans can aggregate
  per-second telemetry in bulk instead of scheduling one callback per
  simulated second.  This is what lets the §V-C usage monitor follow a
  >210 h Bonito run without 756k heap operations.
* :class:`Timeline` records in O(1): in-order appends extend the sorted
  prefix directly, out-of-order records land in an unsorted pending
  buffer.  The shared chronological index (one float key list) and the
  per-label index are (re)built lazily, at most once per batch of
  records, and are reused by :meth:`Timeline.between`,
  :meth:`Timeline.labelled`, iteration, and every exporter sitting on
  top of them — a 1000-query loop after a 20k-record burst pays for a
  single merge, not 1000 re-sorts.
"""

from __future__ import annotations

import bisect
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


#: Chronological sort key shared by the merge and both indices.  ``seq``
#: is strictly increasing, so ties at the same timestamp keep insertion
#: order — the same stable contract ``bisect_right`` gave the old
#: incremental-insert implementation.  ``attrgetter`` keeps the key
#: extraction in C during the merge sort.
_event_key = operator.attrgetter("time", "seq")


class Timeline:
    """An append-only, time-ordered event log.

    Used by the GPU usage monitor and the job lifecycle to record what
    happened when, in virtual time.  Iteration yields events in
    chronological order even if they were appended out of order (which can
    happen when several simulated processes interleave).

    ``record`` is O(1): in-order appends (the overwhelmingly common case)
    extend the sorted prefix directly; out-of-order records accumulate in
    an unsorted pending buffer.  The first query after a batch of records
    merges the buffer once (timsort over a mostly-sorted list) and
    rebuilds the shared float time index; the per-label index is likewise
    built at most once per merge and then served by reference-copy.  All
    readers — ``between``, ``labelled``, iteration, exporters — reuse the
    same indices, so a query loop never re-sorts.
    """

    def __init__(self) -> None:
        self._events: list[TimelineEvent] = []
        #: Parallel list of event times, kept in lockstep with
        #: ``_events`` so ``between()`` can binary-search floats directly.
        self._times: list[float] = []
        #: Out-of-order records awaiting the next lazy merge.  Once this
        #: is non-empty every new record lands here (cheap append) until
        #: a reader forces :meth:`_merge_pending`.
        self._pending: list[TimelineEvent] = []
        #: Per-label chronological index backing ``labelled()``.  Kept
        #: fresh on the in-order fast path; rebuilt lazily after merges.
        self._by_label: dict[str, list[TimelineEvent]] = {}
        self._label_index_dirty = False
        self._counter = itertools.count()

    @hot_path
    def record(self, time: float, label: str, payload: Any = None) -> TimelineEvent:
        """Append an event at ``time`` and return it."""
        if _footprint._RECORDER is not None:
            _footprint._RECORDER.write("timeline")
        event = TimelineEvent(time=time, seq=next(self._counter), label=label, payload=payload)
        times = self._times
        if self._pending or (times and time < times[-1]):
            # Out of order (or an unmerged batch already exists): defer.
            # The merge is amortised across the whole batch instead of
            # paying a list.insert + per-label insort per record.
            self._pending.append(event)
            self._label_index_dirty = True
        else:
            self._events.append(event)
            times.append(time)
            if not self._label_index_dirty:
                self._by_label.setdefault(label, []).append(event)
        return event

    def _merge_pending(self) -> None:
        """Fold the pending buffer into the sorted index (at most once
        per batch of out-of-order records)."""
        if not self._pending:
            return
        events = self._events + self._pending
        events.sort(key=_event_key)
        self._events = events
        self._times = [event.time for event in events]
        self._pending.clear()
        self._label_index_dirty = True

    def _label_index(self) -> dict[str, list[TimelineEvent]]:
        """The per-label chronological index, rebuilding if stale."""
        self._merge_pending()
        if self._label_index_dirty:
            index: dict[str, list[TimelineEvent]] = {}
            for event in self._events:
                index.setdefault(event.label, []).append(event)
            self._by_label = index
            self._label_index_dirty = False
        return self._by_label

    def __len__(self) -> int:
        return len(self._events) + len(self._pending)

    def __iter__(self) -> Iterator[TimelineEvent]:
        self._merge_pending()
        return iter(self._events)

    @hot_path
    def between(self, start: float, end: float) -> list[TimelineEvent]:
        """Events with ``start <= time < end``, chronologically."""
        if _footprint._RECORDER is not None:
            _footprint._RECORDER.read("timeline")
        self._merge_pending()
        lo = bisect.bisect_left(self._times, start)
        hi = bisect.bisect_left(self._times, end)
        return self._events[lo:hi]

    @hot_path
    def labelled(self, label: str) -> list[TimelineEvent]:
        """All events carrying exactly ``label``."""
        if _footprint._RECORDER is not None:
            _footprint._RECORDER.read("timeline")
        return list(self._label_index().get(label, ()))


class TimerHandle:
    """A cancellable scheduled callback.

    Returned by :meth:`VirtualClock.call_at` / :meth:`VirtualClock.call_later`.
    :meth:`cancel` is O(1): the heap entry stays where it is and is
    discarded when it reaches the top, so owners of dead timers (a
    stopped usage monitor, a disarmed fault injector) never leave live
    callbacks behind.
    """

    __slots__ = ("when", "callback", "cancelled", "fired", "key", "_clock")

    def __init__(
        self,
        when: float,
        callback: Callable[[float], None],
        clock: "VirtualClock",
        key: str = "",
    ) -> None:
        self.when = when
        self.callback = callback
        self.cancelled = False
        self.fired = False
        #: Explicit tie-break key; see :meth:`VirtualClock.call_at`.
        self.key = key
        self._clock = clock

    def cancel(self) -> bool:
        """Cancel the timer; returns False if it already fired/cancelled."""
        if self.cancelled or self.fired:
            return False
        self.cancelled = True
        self._clock._live_timers -= 1
        return True

    @property
    def active(self) -> bool:
        """True while the timer may still fire."""
        return not (self.cancelled or self.fired)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "active"
        return f"TimerHandle(when={self.when}, {state})"


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

    The clock starts at ``epoch`` (default 0.0).  :meth:`advance` moves
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

    def __init__(self, epoch: float = 0.0) -> None:
        self._now = float(epoch)
        #: Heap entries are ``(when, key, seq, handle)``: same-instant
        #: callbacks fire ordered by explicit tie-break key first, then
        #: strictly by registration order — the determinism contract
        #: gyan-race's DET403 rule and the clock property tests pin.
        self._pending: list[tuple[float, str, int, TimerHandle]] = []
        self._counter = itertools.count()
        self._live_timers = 0
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
            if handle.cancelled:
                continue
            handle.fired = True
            self._live_timers -= 1
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

        Returns a :class:`TimerHandle`; cancelling it drops the callback
        without touching the rest of the queue.
        """
        handle = TimerHandle(float(when), callback, self, key=key)
        heapq.heappush(self._pending, (handle.when, key, next(self._counter), handle))
        self._live_timers += 1
        return handle

    def call_later(
        self,
        delay: float,
        callback: Callable[[float], None],
        key: str = "",
    ) -> TimerHandle:
        """Schedule ``callback(now)`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise ClockError(f"cannot schedule in the past (delay={delay})")
        return self.call_at(self._now + delay, callback, key=key)

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

    def pending_count(self) -> int:
        """Number of callbacks not yet fired (cancelled timers excluded)."""
        return self._live_timers
