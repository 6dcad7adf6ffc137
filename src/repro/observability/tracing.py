"""Virtual-clock job tracing: spans and instants in the NVProf spirit.

The paper's observability story is device-side — a per-second hardware
usage monitor and NVProf hotspot tables.  This module adds the matching
*scheduler-side* story: every job's lifecycle (submit -> map -> queue ->
launch -> run -> complete/fail/resubmit) is recorded as timed spans with
the mapper's decision attributes attached, so one can see not just that
a job took N virtual seconds, but where those seconds went and why the
mapper placed it where it did.

All timestamps come from the deployment's :class:`~repro.gpusim.clock.
VirtualClock`, so traces are exactly reproducible: two identical runs
serialise byte for byte, which is what lets CI diff trace artifacts.

Zero overhead when disabled: layers hold :data:`NULL_TRACER` by default,
whose ``enabled`` is False and whose methods are no-ops; hot paths guard
attribute-dict construction behind ``tracer.enabled``, so the PR4 bench
numbers hold with tracing off.
"""

from __future__ import annotations

import itertools
from typing import Any

#: Span categories, used as Chrome-trace ``cat`` and for filtering.
CATEGORY_JOB = "job"
CATEGORY_MAPPER = "mapper"
CATEGORY_RUNNER = "runner"


class Span:
    """One timed phase of a job lifecycle.

    ``end`` is ``None`` while the span is open; the exporter closes
    leftover spans at export time (a crashed stock-mode run legitimately
    leaves spans open — the trace shows exactly how far the job got).
    """

    __slots__ = ("span_id", "name", "category", "job_id", "start", "end",
                 "attributes", "seq")

    def __init__(
        self,
        span_id: int,
        name: str,
        category: str,
        job_id: int | None,
        start: float,
        seq: int,
    ) -> None:
        self.span_id = span_id
        self.name = name
        self.category = category
        self.job_id = job_id
        self.start = start
        self.end: float | None = None
        self.attributes: dict[str, Any] = {}
        self.seq = seq

    @property
    def duration(self) -> float | None:
        """Span length in virtual seconds (None while open)."""
        if self.end is None:
            return None
        return self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.end is None else f"{self.duration:.6f}s"
        return f"Span({self.name!r}, job={self.job_id}, {state})"


class SpanEvent:
    """An instantaneous annotation (resubmit hop, requeue, fault)."""

    __slots__ = ("name", "category", "job_id", "time", "attributes", "seq")

    def __init__(
        self,
        name: str,
        category: str,
        job_id: int | None,
        time: float,
        seq: int,
    ) -> None:
        self.name = name
        self.category = category
        self.job_id = job_id
        self.time = time
        self.attributes: dict[str, Any] = {}
        self.seq = seq


class Tracer:
    """Collects spans and instants against one virtual clock.

    The tracer is deliberately append-only and allocation-light: a span
    is one small object, attributes are plain dicts, and no export work
    happens until an exporter walks the lists.
    """

    enabled = True

    def __init__(self, clock) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.events: list[SpanEvent] = []
        self._span_ids = itertools.count(1)
        self._seq = itertools.count()
        #: Open per-job root spans, so any layer can close a job's span
        #: without threading the object through the call stack.
        self._open_job_spans: dict[int, Span] = {}

    # ------------------------------------------------------------------ #
    # span lifecycle
    # ------------------------------------------------------------------ #
    def begin(
        self,
        name: str,
        category: str,
        job_id: int | None = None,
        **attributes: Any,
    ) -> Span:
        """Open a span starting now."""
        span = Span(
            span_id=next(self._span_ids),
            name=name,
            category=category,
            job_id=job_id,
            start=self.clock.now,
            seq=next(self._seq),
        )
        if attributes:
            span.attributes.update(attributes)
        self.spans.append(span)
        return span

    def end(self, span: Span | None, **attributes: Any) -> None:
        """Close a span now (idempotent; None is a no-op for guard-free call sites)."""
        if span is None or span.end is not None:
            return
        span.end = self.clock.now
        if attributes:
            span.attributes.update(attributes)

    def instant(
        self,
        name: str,
        category: str,
        job_id: int | None = None,
        **attributes: Any,
    ) -> SpanEvent:
        """Record an instantaneous event at the current virtual time."""
        event = SpanEvent(
            name=name,
            category=category,
            job_id=job_id,
            time=self.clock.now,
            seq=next(self._seq),
        )
        if attributes:
            event.attributes.update(attributes)
        self.events.append(event)
        return event

    # ------------------------------------------------------------------ #
    # per-job root spans
    # ------------------------------------------------------------------ #
    def begin_job(self, job_id: int, **attributes: Any) -> Span:
        """Open the root lifecycle span for one job (at submit)."""
        span = self.begin("job", CATEGORY_JOB, job_id=job_id, **attributes)
        self._open_job_spans[job_id] = span
        return span

    def end_job(self, job_id: int, **attributes: Any) -> None:
        """Close a job's root span (no-op when never opened / already closed)."""
        span = self._open_job_spans.pop(job_id, None)
        self.end(span, **attributes)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def for_job(self, job_id: int) -> list[Span]:  # gyan: disable=PERF602
        """All spans of one job, in recording order.

        A one-shot debugging accessor: exporters that visit every job
        group the spans into a dict in a single pass instead (see
        ``render_job_timeline``), so no hot path pays this scan.
        """
        return [s for s in self.spans if s.job_id == job_id]

    def job_ids(self) -> list[int]:
        """Distinct traced job ids, ascending."""
        ids = {s.job_id for s in self.spans if s.job_id is not None}
        ids.update(e.job_id for e in self.events if e.job_id is not None)
        return sorted(ids)

    def close_open_spans(self) -> int:
        """Close every still-open span at the current instant.

        Returns how many were closed.  Exporters call this so a crashed
        run still renders a complete, parseable trace.
        """
        closed = 0
        for span in self.spans:
            if span.end is None:
                span.end = self.clock.now
                span.attributes.setdefault("unclosed", True)
                closed += 1
        self._open_job_spans.clear()
        return closed


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    Layers default to :data:`NULL_TRACER` so tracing costs one attribute
    read and a falsy check when off.
    """

    enabled = False
    spans: tuple = ()
    events: tuple = ()

    def begin(self, name, category, job_id=None, **attributes):
        return None

    def end(self, span, **attributes) -> None:
        return None

    def instant(self, name, category, job_id=None, **attributes):
        return None

    def begin_job(self, job_id, **attributes):
        return None

    def end_job(self, job_id, **attributes) -> None:
        return None

    def for_job(self, job_id) -> list:
        return []

    def job_ids(self) -> list:
        return []

    def close_open_spans(self) -> int:
        return 0


#: The shared disabled tracer; safe to use as a default everywhere.
NULL_TRACER = NullTracer()
