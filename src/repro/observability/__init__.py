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
