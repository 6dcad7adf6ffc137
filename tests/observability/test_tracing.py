"""Unit tests for the virtual-clock tracer."""

from repro.gpusim.clock import VirtualClock
from repro.observability.tracing import (
    CATEGORY_JOB,
    NULL_TRACER,
    NullTracer,
    Tracer,
)


def make_tracer() -> tuple[Tracer, VirtualClock]:
    clock = VirtualClock()
    return Tracer(clock), clock


class TestSpans:
    def test_begin_end_records_virtual_times(self):
        tracer, clock = make_tracer()
        span = tracer.begin("map", "mapper", job_id=1, strategy="pid")
        clock.advance(2.5)
        tracer.end(span, outcome="gpu")
        assert span.start == 0.0
        assert span.end == 2.5
        assert span.end - span.start == 2.5
        assert span.attributes == {"strategy": "pid", "outcome": "gpu"}

    def test_end_is_idempotent(self):
        tracer, clock = make_tracer()
        span = tracer.begin("run", "runner")
        clock.advance(1.0)
        tracer.end(span)
        clock.advance(1.0)
        tracer.end(span, late="yes")
        assert span.end == 1.0
        assert "late" not in span.attributes

    def test_end_none_is_noop(self):
        tracer, _ = make_tracer()
        tracer.end(None)  # the guard-free call-site contract

    def test_instant(self):
        tracer, clock = make_tracer()
        clock.advance(3.0)
        event = tracer.instant("requeue", "runner", job_id=7, attempt=2)
        assert event.time == 3.0
        assert event.job_id == 7
        assert event.attributes == {"attempt": 2}

    def test_sequence_numbers_order_same_instant_records(self):
        tracer, _ = make_tracer()
        a = tracer.begin("first", "job")
        b = tracer.begin("second", "job")
        e = tracer.instant("third", "job")
        assert a.seq < b.seq < e.seq


class TestJobSpans:
    def test_begin_end_job_roundtrip(self):
        tracer, clock = make_tracer()
        tracer.begin_job(5, tool="racon")
        clock.advance(4.0)
        tracer.end_job(5, state="ok")
        (span,) = [s for s in tracer.spans if s.job_id == 5]
        assert span.name == "job"
        assert span.category == CATEGORY_JOB
        assert span.end - span.start == 4.0
        assert span.attributes == {"tool": "racon", "state": "ok"}

    def test_end_job_unknown_is_noop(self):
        tracer, _ = make_tracer()
        tracer.end_job(99, state="ok")
        assert tracer.spans == []

    def test_job_ids_sorted_and_distinct(self):
        tracer, _ = make_tracer()
        tracer.begin_job(30)
        tracer.begin_job(10)
        tracer.instant("x", "job", job_id=20)
        tracer.instant("y", "job", job_id=10)
        assert tracer.job_ids() == [10, 20, 30]

    def test_close_open_spans_marks_unclosed(self):
        tracer, clock = make_tracer()
        open_span = tracer.begin_job(1, tool="racon")
        closed_span = tracer.begin("map", "job", job_id=1)
        tracer.end(closed_span)
        clock.advance(9.0)
        assert tracer.close_open_spans() == 1
        assert open_span.end == 9.0
        assert open_span.attributes["unclosed"] is True
        assert "unclosed" not in closed_span.attributes
        # a second call finds nothing left open
        assert tracer.close_open_spans() == 0


class TestNullTracer:
    def test_disabled_and_empty(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.spans == ()
        assert NULL_TRACER.events == ()

    def test_all_operations_are_noops(self):
        """Its one operation, ``end``, is a no-op; callers guard every
        other tracer call behind ``enabled``, so the rest are absent."""
        null = NullTracer()
        assert not null.enabled
        assert null.end(None, y=2) is None
        assert null.spans == () and null.events == ()
        for name in ("begin", "instant", "begin_job", "end_job",
                     "job_ids", "close_open_spans"):
            assert hasattr(Tracer, name) and not hasattr(null, name), name

    def test_enabled_tracer_advertises_itself(self):
        tracer, _ = make_tracer()
        assert tracer.enabled is True
