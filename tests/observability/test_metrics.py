"""Unit tests for the typed metrics registry."""

import pytest

from repro.observability.metrics import (
    DEFAULT_BUCKETS,
    MetricsError,
    MetricsRegistry,
    format_value,
)


# --------------------------------------------------------------------- #
# counters
# --------------------------------------------------------------------- #
class TestCounters:
    def test_inc_and_value(self):
        reg = MetricsRegistry()
        c = reg.counter("jobs_total", "jobs")
        assert c.value == 0.0
        c.inc()
        c.inc(2)
        assert c.value == 3.0

    def test_negative_increment_rejected(self):
        reg = MetricsRegistry()
        c = reg.counter("jobs_total")
        with pytest.raises(MetricsError):
            c.inc(-1)

    def test_labelled_children_are_independent(self):
        reg = MetricsRegistry()
        c = reg.counter("finished_total", labels=("state",))
        c.labels(state="ok").inc(5)
        c.labels(state="error").inc()
        assert reg.value("finished_total", state="ok") == 5
        assert reg.value("finished_total", state="error") == 1

    def test_wrong_label_set_rejected(self):
        reg = MetricsRegistry()
        c = reg.counter("finished_total", labels=("state",))
        with pytest.raises(MetricsError):
            c.labels(runner="local")
        with pytest.raises(MetricsError):
            c.labels(state="ok", runner="local")

    def test_labelless_proxy_on_labelled_family_rejected(self):
        reg = MetricsRegistry()
        c = reg.counter("finished_total", labels=("state",))
        with pytest.raises(MetricsError):
            c.inc()

    def test_labels_on_labelless_family_rejected(self):
        reg = MetricsRegistry()
        c = reg.counter("jobs_total")
        with pytest.raises(MetricsError):
            c.labels(state="ok")

    def test_labelless_family_series_is_labels_without_arguments(self):
        reg = MetricsRegistry()
        h = reg.histogram("latency_seconds", buckets=(1.0,))
        child = h.labels()
        child.observe_many(0.5, 3)
        h.observe(2.0)
        assert child is h.labels() and (child.count, child.total) == (4, 3.5)


# --------------------------------------------------------------------- #
# gauges and histograms
# --------------------------------------------------------------------- #
class TestGauges:
    def test_set_overwrites(self):
        reg = MetricsRegistry()
        g = reg.gauge("queue_depth")
        g.set(10)
        g.set(7)
        assert g.value == 7.0


class TestHistograms:
    def test_observe_updates_sum_and_count(self):
        reg = MetricsRegistry()
        h = reg.histogram("latency_seconds", buckets=(1.0, 5.0, 10.0))
        for v in (0.5, 0.7, 4.0, 20.0):
            h.observe(v)
        snap = reg.snapshot()["latency_seconds"]["series"]["latency_seconds"]
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(25.2)

    def test_cumulative_le_semantics(self):
        reg = MetricsRegistry()
        h = reg.histogram("latency_seconds", buckets=(1.0, 5.0, 10.0))
        for v in (0.5, 1.0, 4.0, 20.0):  # 1.0 lands in le=1.0 (inclusive)
            h.observe(v)
        text = reg.render_prometheus()
        assert 'latency_seconds_bucket{le="1"} 2' in text
        assert 'latency_seconds_bucket{le="5"} 3' in text
        assert 'latency_seconds_bucket{le="10"} 3' in text
        assert 'latency_seconds_bucket{le="+Inf"} 4' in text
        assert "latency_seconds_count 4" in text

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


# --------------------------------------------------------------------- #
# registry semantics
# --------------------------------------------------------------------- #
class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        a = reg.counter("jobs_total", "jobs")
        b = reg.counter("jobs_total")
        a.inc()
        b.inc()
        assert reg.value("jobs_total") == 2

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("jobs_total")
        with pytest.raises(MetricsError):
            reg.gauge("jobs_total")

    def test_label_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("jobs_total", labels=("tool",))
        with pytest.raises(MetricsError):
            reg.counter("jobs_total", labels=("runner",))

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        for bad in ("", "has space", "has-dash", "1starts_with_digit",
                    "jobs_é_total", "x²", "ｊobs", "trailing_newline\n"):
            with pytest.raises(MetricsError):
                reg.counter(bad)

    def test_value_of_untouched_series_is_zero(self):
        reg = MetricsRegistry()
        reg.counter("jobs_total", labels=("tool",))
        assert reg.value("jobs_total", tool="racon") == 0.0

    def test_value_of_unknown_metric_raises(self):
        reg = MetricsRegistry()
        with pytest.raises(MetricsError):
            reg.value("nope_total")

    def test_value_of_histogram_raises(self):
        reg = MetricsRegistry()
        reg.histogram("latency_seconds")
        with pytest.raises(MetricsError):
            reg.value("latency_seconds")


# --------------------------------------------------------------------- #
# deterministic export
# --------------------------------------------------------------------- #
def _populate(reg: MetricsRegistry) -> None:
    reg.counter("jobs_total", "all jobs", labels=("tool",)).labels(
        tool="racon"
    ).inc(3)
    reg.counter("jobs_total", labels=("tool",)).labels(tool="bonito").inc()
    reg.gauge("queue_depth", "queued jobs").set(2)
    h = reg.histogram("latency_seconds", "latency", buckets=(1.0, 10.0))
    h.observe(0.25)
    h.observe(7.5)


class TestExportDeterminism:
    def test_prometheus_render_is_reproducible(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        _populate(a)
        _populate(b)
        assert a.render_prometheus() == b.render_prometheus()

    def test_prometheus_render_shape(self):
        reg = MetricsRegistry()
        _populate(reg)
        text = reg.render_prometheus()
        assert "# HELP jobs_total all jobs" in text
        assert "# TYPE jobs_total counter" in text
        assert 'jobs_total{tool="bonito"} 1' in text
        assert 'jobs_total{tool="racon"} 3' in text
        assert "# TYPE queue_depth gauge" in text
        assert "# TYPE latency_seconds histogram" in text
        assert text.endswith("\n")

    def test_snapshot_is_reproducible_and_flat(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        _populate(a)
        _populate(b)
        assert a.snapshot() == b.snapshot()
        snap = a.snapshot()
        assert snap["jobs_total"]["type"] == "counter"
        assert snap["jobs_total"]["series"]["jobs_total{tool=racon}"] == 3


class TestFormatValue:
    def test_integral_values_have_no_decimal_point(self):
        assert format_value(3.0) == "3"
        assert format_value(0.0) == "0"
        assert format_value(-2.0) == "-2"

    def test_fractional_values_roundtrip(self):
        assert format_value(0.25) == "0.25"
        assert float(format_value(1.72)) == 1.72
