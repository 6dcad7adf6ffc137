"""Virtual-clock observability: job tracing, typed metrics, exporters.

The public surface:

* :class:`~repro.observability.tracing.Tracer` /
  :data:`~repro.observability.tracing.NULL_TRACER` — span collection
  against a deployment's virtual clock, zero-overhead when disabled.
* :class:`~repro.observability.metrics.MetricsRegistry` — typed
  counters/gauges/histograms with label support; every layer of a
  deployment reports into one shared registry.
* The exporters — Chrome/Perfetto trace-event JSON, Prometheus text
  exposition, per-job text timelines — all byte-stable for identical
  simulated runs.
* :func:`~repro.observability.driver.trace_workload` /
  :func:`~repro.observability.driver.trace_chaos` — one-call traced
  runs producing a :class:`~repro.observability.driver.TraceArtifacts`.
"""

from repro.observability.driver import (
    TraceArtifacts,
    trace_chaos,
    trace_workload,
)
from repro.observability.export import (
    TRACE_SCHEMA,
    chrome_trace_dict,
    render_chrome_trace,
    render_job_timeline,
    render_prometheus,
)
from repro.observability.metrics import (
    DEFAULT_BUCKETS,
    MetricsError,
    MetricsRegistry,
    format_value,
)
from repro.observability.tracing import (
    CATEGORY_JOB,
    CATEGORY_MAPPER,
    CATEGORY_RUNNER,
    NULL_TRACER,
    NullTracer,
    Span,
    SpanEvent,
    Tracer,
)

__all__ = [
    "CATEGORY_JOB",
    "CATEGORY_MAPPER",
    "CATEGORY_RUNNER",
    "DEFAULT_BUCKETS",
    "MetricsError",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "SpanEvent",
    "TRACE_SCHEMA",
    "TraceArtifacts",
    "Tracer",
    "chrome_trace_dict",
    "format_value",
    "render_chrome_trace",
    "render_job_timeline",
    "render_prometheus",
    "trace_chaos",
    "trace_workload",
]
