"""A typed metrics registry: counters, gauges, histograms, labels.

Before this module every layer kept its own ad-hoc tallies — the mapper
counted ``degraded_queries`` and ``snapshot_cache_hits`` in bare ints,
runners counted ``requeues``, and the chaos harness summed them by
attribute name.  The registry replaces that with the structure the
paper's evaluation (per-second hardware usage tables, NVProf hotspot
percentages) implies: named instruments with help strings, optional
labels, and deterministic export.

Design rules:

* **Virtual-time native.**  Nothing here reads a wall clock; histograms
  and gauges record whatever (virtual-second) values callers pass, so
  two identical simulated runs produce byte-identical exports.
* **Cheap on the hot path.**  ``Counter.inc`` is one integer add on a
  pre-bound child object; no dict lookups, no string formatting.  The
  mapper's burst-dispatch path (200 jobs per clock instant) pays a few
  adds per job.
* **Deterministic rendering.**  :meth:`MetricsRegistry.render_prometheus`
  emits families sorted by name and children sorted by label values, and
  formats floats through one canonical function — equal runs serialise
  byte for byte.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Mapping

#: Default histogram buckets, in virtual seconds: spans the sub-second
#: window units through multi-hour basecalling runs the paper measures.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.01, 0.1, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
    60.0, 300.0, 1800.0, 3600.0, 21600.0, 86400.0,
)


class MetricsError(ValueError):
    """Misuse of the registry (name/type/label mismatches)."""


def format_value(value: float) -> str:
    """Canonical number formatting shared by every exporter.

    Integral values render without a decimal point (``3`` not ``3.0``)
    and everything else through ``repr``, which round-trips exactly —
    the byte-stability contract.
    """
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


#: The Prometheus exposition format's metric-name grammar.  ASCII only:
#: ``str.isalnum`` would also pass ``é``, ``²`` or a full-width ``ｊ``,
#: which a Prometheus server rejects.
_METRIC_NAME = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")


def _validate_name(name: str) -> None:
    if _METRIC_NAME.fullmatch(name) is None:
        raise MetricsError(f"invalid metric name {name!r}")


def _label_key(
    labelnames: tuple[str, ...], labels: Mapping[str, str]
) -> tuple[str, ...]:
    if set(labels) != set(labelnames):
        raise MetricsError(
            f"expected labels {sorted(labelnames)}, got {sorted(labels)}"
        )
    return tuple(str(labels[name]) for name in labelnames)


class CounterChild:
    """One labelled series of a counter: monotone, increment-only."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricsError(f"counters cannot decrease (inc by {amount})")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value


class GaugeChild:
    """One labelled series of a gauge: set to any value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class HistogramChild:
    """One labelled series of a histogram: fixed buckets + sum + count."""

    __slots__ = ("buckets", "counts", "total", "count")

    def __init__(self, buckets: tuple[float, ...]) -> None:
        self.buckets = buckets
        self.counts = [0] * len(buckets)  # per-bucket (non-cumulative)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.total += value
        self.count += 1
        for i, upper in enumerate(self.buckets):
            if value <= upper:
                self.counts[i] += 1
                break

    def observe_many(self, value: float, count: int) -> None:
        """Record ``count`` identical observations in O(buckets).

        The fleet tier completes jobs in same-service-time *groups*;
        per-job ``observe`` calls would reintroduce the per-job cost the
        columnar path exists to avoid, so group latencies aggregate in
        one bulk fill.
        """
        if count <= 0:
            return
        value = float(value)
        self.total += value * count
        self.count += count
        for i, upper in enumerate(self.buckets):
            if value <= upper:
                self.counts[i] += count
                break

    def cumulative(self) -> list[int]:
        """Cumulative bucket counts, Prometheus ``le`` semantics."""
        out, running = [], 0
        for c in self.counts:
            running += c
            out.append(running)
        return out


@dataclass
class _Family:
    """A named instrument family: type, help, labels, children."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    help: str
    labelnames: tuple[str, ...]
    buckets: tuple[float, ...] = ()
    children: dict[tuple[str, ...], object] = field(default_factory=dict)

    def _new_child(self):
        if self.kind == "counter":
            return CounterChild()
        if self.kind == "gauge":
            return GaugeChild()
        return HistogramChild(self.buckets)

    def child(self, key: tuple[str, ...]):
        existing = self.children.get(key)
        if existing is None:
            existing = self.children[key] = self._new_child()
        return existing


class Instrument:
    """Handle to one family; label-less families proxy a default child."""

    def __init__(self, family: _Family) -> None:
        self._family = family
        self._default = family.child(()) if not family.labelnames else None

    def labels(self, **labels: str):
        """The child series for one concrete label set (created lazily);
        a label-less family's one series is ``labels()``."""
        family = self._family
        return family.child(_label_key(family.labelnames, labels))

    # -- label-less convenience proxies -------------------------------- #
    def _require_default(self):
        if self._default is None:
            raise MetricsError(
                f"{self._family.name} is labelled; use .labels(...) first"
            )
        return self._default

    def inc(self, amount: float = 1.0) -> None:
        self._require_default().inc(amount)

    def set(self, value: float) -> None:
        self._require_default().set(value)

    def observe(self, value: float) -> None:
        self._require_default().observe(value)

    @property
    def value(self) -> float:
        return self._require_default().value


class MetricsRegistry:
    """All instruments of one deployment, exported deterministically."""

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}

    # ------------------------------------------------------------------ #
    # instrument creation (idempotent get-or-create)
    # ------------------------------------------------------------------ #
    def _family(
        self,
        name: str,
        kind: str,
        help: str,
        labelnames: Iterable[str],
        buckets: tuple[float, ...] = (),
    ) -> _Family:
        _validate_name(name)
        labelnames = tuple(labelnames)
        existing = self._families.get(name)
        if existing is not None:
            if existing.kind != kind or existing.labelnames != labelnames:
                raise MetricsError(
                    f"{name} already registered as {existing.kind}"
                    f"{existing.labelnames}, cannot re-register as "
                    f"{kind}{labelnames}"
                )
            return existing
        family = _Family(
            name=name, kind=kind, help=help, labelnames=labelnames,
            buckets=buckets,
        )
        self._families[name] = family
        return family

    def counter(
        self, name: str, help: str = "", labels: Iterable[str] = ()
    ) -> Instrument:
        """Get or create a counter family."""
        return Instrument(self._family(name, "counter", help, labels))

    def gauge(
        self, name: str, help: str = "", labels: Iterable[str] = ()
    ) -> Instrument:
        """Get or create a gauge family."""
        return Instrument(self._family(name, "gauge", help, labels))

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Instrument:
        """Get or create an unlabelled histogram family."""
        return Instrument(
            self._family(name, "histogram", help, (), buckets=tuple(buckets))
        )

    # ------------------------------------------------------------------ #
    # introspection and export
    # ------------------------------------------------------------------ #

    def value(self, name: str, **labels: str) -> float:
        """Current value of one counter/gauge series (0 if never touched)."""
        family = self._families.get(name)
        if family is None:
            raise MetricsError(f"no metric named {name!r}")
        if family.kind == "histogram":
            raise MetricsError(f"{name} is a histogram; read snapshot() instead")
        key = _label_key(family.labelnames, labels) if family.labelnames else ()
        child = family.children.get(key)
        return child.value if child is not None else 0.0

    def snapshot(self) -> dict:
        """Deterministic nested-dict view (for JSON summaries and tests).

        Series keys are rendered as ``name{a=x,b=y}`` with labels in
        declaration order, so the mapping is flat, sortable and stable.
        """
        out: dict[str, dict] = {}
        for name in sorted(self._families):
            family = self._families[name]
            series: dict[str, object] = {}
            for key in sorted(family.children):
                child = family.children[key]
                label_text = ",".join(
                    f"{ln}={lv}" for ln, lv in zip(family.labelnames, key)
                )
                series_name = f"{name}{{{label_text}}}" if label_text else name
                if family.kind == "histogram":
                    series[series_name] = {
                        "count": child.count,
                        "sum": round(child.total, 9),
                    }
                else:
                    series[series_name] = (
                        int(child.value)
                        if float(child.value).is_integer()
                        else child.value
                    )
            out[name] = {"type": family.kind, "series": series}
        return out

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format, byte-stable.

        Families sort by name, children by label values; every number
        goes through :func:`format_value`.  An instrument that was
        registered but never incremented still renders (value 0 for the
        default child), matching prometheus_client behaviour.
        """
        lines: list[str] = []
        for name in sorted(self._families):
            family = self._families[name]
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {family.kind}")
            for key in sorted(family.children):
                child = family.children[key]
                label_text = ",".join(
                    f'{ln}="{lv}"' for ln, lv in zip(family.labelnames, key)
                )
                suffix = f"{{{label_text}}}" if label_text else ""
                if family.kind == "histogram":
                    cumulative = child.cumulative()
                    for upper, count in zip(family.buckets, cumulative):
                        le = format_value(upper)
                        bucket_labels = (
                            f'{label_text},le="{le}"' if label_text
                            else f'le="{le}"'
                        )
                        lines.append(
                            f"{name}_bucket{{{bucket_labels}}} {count}"
                        )
                    inf_labels = (
                        f'{label_text},le="+Inf"' if label_text else 'le="+Inf"'
                    )
                    lines.append(f"{name}_bucket{{{inf_labels}}} {child.count}")
                    lines.append(
                        f"{name}_sum{suffix} {format_value(child.total)}"
                    )
                    lines.append(f"{name}_count{suffix} {child.count}")
                else:
                    lines.append(
                        f"{name}{suffix} {format_value(child.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")
