"""Deterministic trace exporters: Perfetto JSON, Prometheus, text timelines.

Three formats, one determinism contract — byte-identical output for
identical simulated runs:

* :func:`render_chrome_trace` — the Chrome/Perfetto trace-event JSON
  format (``chrome://tracing`` / https://ui.perfetto.dev load it
  directly).  Jobs map to track ids, phases to complete (``"X"``)
  events, resubmit hops and requeues to instant (``"i"``) events.
* :func:`render_prometheus` — delegates to the registry's text
  exposition (kept here so artifact writers import one module).
* :func:`render_job_timeline` — a human-readable per-job phase listing,
  the ``nvprof --print-gpu-trace``-style quick look.

:func:`render_document` is the one emitter every whole-document JSON
payload in the repo (``gyan.*/v1`` artifacts, baselines, plans,
schedules) goes through, so the byte layout is stated once.

Job ids come from a process-global counter, so two runs in one process
would differ; every exporter renumbers ids relative to the smallest
traced id (the same normalisation the chaos harness applies to
resubmit chains), restoring byte-stability.
"""

from __future__ import annotations

import json
from typing import Any

from repro.hotpath import hot_path
from repro.observability.metrics import MetricsRegistry, format_value
from repro.observability.tracing import Span, SpanEvent, Tracer

#: Schema identifier stamped into the Perfetto artifact's otherData.
TRACE_SCHEMA = "gyan.trace/v1"

#: Microseconds per virtual second (trace-event ``ts`` unit).
_US = 1_000_000


#: Attribute keys whose values are Galaxy job ids; renumbered alongside
#: track ids so cross-job references stay byte-stable.
_JOB_ID_ATTRS = frozenset({"resubmit_of", "retry_job"})


def _clean_attrs(
    attributes: dict[str, Any], base: int | None = None
) -> dict[str, Any]:
    """JSON-safe, deterministic args: sorted keys, primitives coerced.

    When ``base`` is given, job-id-valued attributes are renumbered
    relative to it (ids come from a process-global counter).
    """
    out: dict[str, Any] = {}
    for key in sorted(attributes):
        value = attributes[key]
        if (
            base is not None
            and key in _JOB_ID_ATTRS
            and isinstance(value, int)
            and not isinstance(value, bool)
        ):
            out[key] = value - base + 1
        elif isinstance(value, (bool, int, str)) or value is None:
            out[key] = value
        elif isinstance(value, float):
            out[key] = round(value, 9)
        elif isinstance(value, (list, tuple)):
            out[key] = [str(v) for v in value]
        else:
            out[key] = str(value)
    return out


def _job_base(tracer: Tracer) -> int:
    """Smallest traced job id — the renumbering origin."""
    ids = tracer.job_ids()
    return ids[0] if ids else 1


def _tid(job_id: int | None, base: int) -> int:
    """Normalised track id: jobs count from 1, jobless records on 0."""
    if job_id is None:
        return 0
    return job_id - base + 1


def chrome_trace_dict(
    tracer: Tracer, metadata: dict[str, Any] | None = None
) -> dict:
    """The trace-event JSON object for one traced run.

    Still-open spans are closed at the tracer's current virtual instant
    first (and marked ``unclosed``), so crashed runs export cleanly.
    """
    tracer.close_open_spans()
    base = _job_base(tracer)
    events: list[dict] = []

    # Track-name metadata, one per traced job (plus the scheduler track
    # when jobless records exist).
    names: dict[int, str] = {}
    for span in tracer.spans:
        tid = _tid(span.job_id, base)
        if span.name == "job" and "tool" in span.attributes:
            names[tid] = f"job {tid} ({span.attributes['tool']})"
        else:
            names.setdefault(tid, f"job {tid}" if tid else "deployment")
    for event in tracer.events:
        tid = _tid(event.job_id, base)
        names.setdefault(tid, f"job {tid}" if tid else "deployment")
    for tid in sorted(names):
        events.append({
            "args": {"name": names[tid]},
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": tid,
        })

    records: list[tuple[int, int, dict]] = []
    for span in tracer.spans:
        assert span.end is not None  # close_open_spans ran
        args = _clean_attrs(span.attributes, base)
        if span.job_id is not None:
            args["job_id"] = _tid(span.job_id, base)
        records.append((
            round(span.start * _US),
            span.seq,
            {
                "args": args,
                "cat": span.category,
                "dur": round((span.end - span.start) * _US),
                "name": span.name,
                "ph": "X",
                "pid": 1,
                "tid": _tid(span.job_id, base),
                "ts": round(span.start * _US),
            },
        ))
    for event in tracer.events:
        args = _clean_attrs(event.attributes, base)
        if event.job_id is not None:
            args["job_id"] = _tid(event.job_id, base)
        records.append((
            round(event.time * _US),
            event.seq,
            {
                "args": args,
                "cat": event.category,
                "name": event.name,
                "ph": "i",
                "pid": 1,
                "s": "t",
                "tid": _tid(event.job_id, base),
                "ts": round(event.time * _US),
            },
        ))
    records.sort(key=lambda r: (r[0], r[1]))
    events.extend(record for _ts, _seq, record in records)

    other: dict[str, Any] = {"schema": TRACE_SCHEMA}
    if metadata:
        other.update(_clean_attrs(metadata))
    return {
        "displayTimeUnit": "ms",
        "otherData": other,
        "traceEvents": events,
    }


def render_document(payload: Any) -> str:
    """A JSON document as the repo writes it to disk and stdout: two-space
    indent, sorted keys, one trailing newline.  CI's double-run byte
    diffs depend on every artifact going through here."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@hot_path
def render_chrome_trace(
    tracer: Tracer, metadata: dict[str, Any] | None = None
) -> str:
    """Serialise :func:`chrome_trace_dict` byte-stably."""
    return render_document(chrome_trace_dict(tracer, metadata))


@hot_path
def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry's Prometheus text exposition (byte-stable)."""
    return registry.render_prometheus()


def _detail_value(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return format_value(value)
    if isinstance(value, list):
        return ",".join(value) if value else "-"
    return str(value)


def _detail(attributes: dict[str, Any]) -> str:
    return " ".join(
        f"{k}={_detail_value(v)}" for k, v in attributes.items()
    )


def _timeline_rows(
    spans: list[Span], events: list[SpanEvent], base: int
) -> list[tuple[float, int, str]]:
    rows: list[tuple[float, int, str]] = []
    for span in spans:
        end = span.end if span.end is not None else span.start
        detail = _detail(_clean_attrs(
            {k: v for k, v in span.attributes.items() if k != "tool"}, base
        ))
        rows.append((
            span.start,
            span.seq,
            f"{span.start:>12.6f}  {span.name:<12} "
            f"+{end - span.start:.6f}s"
            + (f"  {detail}" if detail else ""),
        ))
    for event in events:
        detail = _detail(_clean_attrs(event.attributes, base))
        rows.append((
            event.time,
            event.seq,
            f"{event.time:>12.6f}  {event.name:<12} (instant)"
            + (f"  {detail}" if detail else ""),
        ))
    rows.sort(key=lambda r: (r[0], r[1]))
    return rows


@hot_path
def render_job_timeline(tracer: Tracer, job_id: int | None = None) -> str:
    """Per-job text timelines (all traced jobs when ``job_id`` is None).

    Spans and events are grouped by job id in one pass up front — the
    per-job rescans this replaced cost O(jobs × records).
    """
    tracer.close_open_spans()
    base = _job_base(tracer)
    job_ids = [job_id] if job_id is not None else tracer.job_ids()
    spans_by_job: dict[int | None, list[Span]] = {}
    events_by_job: dict[int | None, list[SpanEvent]] = {}
    for span in tracer.spans:
        spans_by_job.setdefault(span.job_id, []).append(span)
    for event in tracer.events:
        events_by_job.setdefault(event.job_id, []).append(event)
    blocks: list[str] = []
    for jid in job_ids:
        spans = spans_by_job.get(jid, [])
        events = events_by_job.get(jid, [])
        if not spans and not events:
            continue
        root = next((s for s in spans if s.name == "job"), None)
        header_parts = [f"job {_tid(jid, base)}"]
        if root is not None:
            tool = root.attributes.get("tool")
            state = root.attributes.get("state", "?")
            if tool:
                header_parts.append(f" ({tool})")
            header_parts.append(f" — {state}")
            if root.end is not None:
                header_parts.append(f" in {root.end - root.start:.6f}s")
        lines = ["".join(header_parts)]
        lines.extend(
            text for _t, _s, text in _timeline_rows(spans, events, base)
        )
        blocks.append("\n".join(lines))
    return ("\n\n".join(blocks) + "\n") if blocks else ""
