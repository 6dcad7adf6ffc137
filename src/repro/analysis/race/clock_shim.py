"""PermutingClock: the happens-before layer's instrumented virtual clock.

The core :class:`~repro.gpusim.clock.VirtualClock` fires same-instant
callbacks ordered by explicit tie-break key, then registration order.
That order is *deterministic*, but nothing proves it is *irrelevant*:
if two unkeyed callbacks land on one instant and the artifacts depend
on which ran first, every refactor that reorders registrations is a
silent output change.

:class:`PermutingClock` subclasses the core clock and drains each
virtual instant as a batch.  Unkeyed same-instant groups of two or more
live callbacks are recorded as :class:`TieRecord`\\ s; an installed
:class:`Schedule` reorders chosen groups before firing, which is how
the checker replays a scenario "as if" registration order had differed.
Explicitly keyed timers are never permuted — a key *is* the contract
that pins the order.

Batch-draining is a deliberate, documented approximation: the base
clock pops one entry at a time, so a callback scheduling a *new* timer
at the very instant being drained can interleave it (by key) with the
not-yet-fired remainder of the batch.  The shim fires such late
arrivals as a subsequent batch at the same instant instead.  No shipped
scenario schedules into its own instant, and the checker only ever
compares shim runs against shim runs, so the approximation cannot
produce a false divergence.

Schedules serialise under schema ``gyan.race/v1`` and replay via
``python -m repro race --schedule FILE``.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.gpusim.clock import HORIZON, TimerHandle, VirtualClock
from repro.gpusim.errors import ClockError
from repro.gpusim.footprint import FootprintRecorder
from repro.hotpath import hot_path

#: Schema identifier stamped into serialised schedules.
SCHEDULE_SCHEMA = "gyan.race/v1"


def member_label(tie_index: int, position: int) -> str:
    """The footprint-attribution label of one tie member."""
    return f"t{tie_index}:{position}"


def describe_callback(callback: object) -> str:
    """A stable human-readable name for a timer callback."""
    qualname = getattr(callback, "__qualname__", None)
    if qualname:
        return str(qualname)
    return type(callback).__name__


@dataclass(frozen=True)
class TieRecord:
    """One same-instant group of unkeyed callbacks the shim observed."""

    index: int
    when: float
    #: Callback descriptions in baseline (registration) order.
    members: tuple[str, ...]


@dataclass
class Schedule:
    """A set of tie-order flips to impose on a scenario replay.

    ``flips`` maps a tie's ordinal index (the order the baseline run
    observed it) to a permutation of its member positions: ``(1, 0)``
    fires the second-registered callback first.
    """

    scenario: str
    flips: dict[int, tuple[int, ...]] = field(default_factory=dict)

    def order_for(self, tie_index: int, size: int) -> tuple[int, ...]:
        """The firing order for one tie (identity when not flipped)."""
        order = self.flips.get(tie_index)
        if order is None:
            return tuple(range(size))
        if sorted(order) != list(range(size)):
            raise ClockError(
                f"schedule flip for tie {tie_index} is not a permutation "
                f"of {size} members: {order}"
            )
        return order

    def to_dict(self) -> dict:
        return {
            "schema": SCHEDULE_SCHEMA,
            "scenario": self.scenario,
            "flips": [
                {"tie": index, "order": list(order)}
                for index, order in sorted(self.flips.items())
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Schedule":
        schema = data.get("schema") if isinstance(data, dict) else None
        if schema != SCHEDULE_SCHEMA:
            raise ValueError(
                f"not a gyan-race schedule (schema={schema!r}, "
                f"expected {SCHEDULE_SCHEMA!r})"
            )
        flips: dict[int, tuple[int, ...]] = {}
        try:
            for flip in data.get("flips", []):
                flips[int(flip["tie"])] = tuple(int(i) for i in flip["order"])
        except (TypeError, KeyError) as exc:
            raise ValueError(f"malformed schedule flip: {exc!r}") from None
        return cls(scenario=str(data.get("scenario", "")), flips=flips)

    @classmethod
    def from_file(cls, path: str | Path) -> "Schedule":
        return cls.from_dict(json.loads(Path(path).read_text()))


class PermutingClock(VirtualClock):
    """A :class:`VirtualClock` that records and permutes timer ties.

    Parameters
    ----------
    schedule:
        Tie-order flips to impose; ``None`` fires baseline order.
    recorder:
        When given, each tie member's callback runs attributed to its
        :func:`member_label`, so the checker can read back per-member
        read/write footprints for commutativity pruning.
    """

    def __init__(
        self,
        epoch: float = 0.0,
        schedule: Schedule | None = None,
        recorder: FootprintRecorder | None = None,
    ) -> None:
        super().__init__(epoch)
        self.schedule = schedule
        self.recorder = recorder
        #: Every unkeyed multi-member tie observed, in firing order.
        self.ties: list[TieRecord] = []

    @hot_path
    def advance_to(self, when: float) -> float:
        if when < self._now:
            raise ClockError(f"cannot move clock backwards: {when} < {self._now}")
        if not when < HORIZON:  # NaN too
            raise ClockError(f"cannot move clock to t={when}: instants stop below 2**53 s")
        pending = self._pending
        while pending and pending[0][0] <= when:
            batch_when = pending[0][0]
            batch: list[tuple[float, str, int, TimerHandle]] = []
            while pending and pending[0][0] == batch_when:
                batch.append(heapq.heappop(pending))
            self._fire_batch(batch_when, batch)
        if self._span_listeners:
            for listener in self._span_listeners:
                listener(self._now, when, True)
        self._now = max(self._now, when)
        return self._now

    # ------------------------------------------------------------------ #
    def _fire_batch(
        self, batch_when: float, batch: list[tuple[float, str, int, TimerHandle]]
    ) -> None:
        """Fire one instant's entries, permuting unkeyed tie groups."""
        # ``batch`` arrives heap-ordered: (key, seq) within the instant.
        plan: list[tuple[TimerHandle, str]] = []  # (handle, attribution label)
        group: list[TimerHandle] = []  # reused across tie groups
        i = 0
        while i < len(batch):
            j = i
            key = batch[i][1]
            group.clear()
            while j < len(batch) and batch[j][1] == key:
                group.append(batch[j][3])
                j += 1
            if key == "" and len(group) >= 2:
                tie_index = len(self.ties)
                self.ties.append(
                    TieRecord(
                        index=tie_index,
                        when=batch_when,
                        members=tuple(
                            describe_callback(h.callback) for h in group
                        ),
                    )
                )
                order = (
                    self.schedule.order_for(tie_index, len(group))
                    if self.schedule is not None
                    else tuple(range(len(group)))
                )
                for position in order:
                    plan.append(
                        (group[position], member_label(tie_index, position))
                    )
            else:
                plan.extend((handle, "") for handle in group)
            i = j

        for handle, label in plan:
            at = max(self._now, batch_when)
            if self._span_listeners:
                for listener in self._span_listeners:
                    listener(self._now, at, False)
            self._now = at
            if label and self.recorder is not None:
                with self.recorder.attributed(label):
                    handle.callback(self._now)
            else:
                handle.callback(self._now)
