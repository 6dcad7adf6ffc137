"""Job metrics plugins — Galaxy's post-run measurement framework.

Real Galaxy attaches *job metrics plugins* (``core``, ``cpuinfo``,
``env`` ...) that annotate every finished job with structured
measurements shown in the job info page.  GYAN's §V-C hardware usage
script is exactly this kind of collector; this module provides the
plugin framework plus the two collectors a GYAN deployment wants:

* :class:`CoreMetricsPlugin` — the stock ``core`` plugin's fields
  (runtime, queue time, slots, exit code);
* :class:`GpuMetricsPlugin` — per-device utilisation/memory summary and
  energy, sourced from the §V-C monitor and the energy meter.
"""

from __future__ import annotations

from typing import Any, Protocol

from repro.galaxy.job import GalaxyJob


class JobMetricsPlugin(Protocol):
    """One collector: job -> named measurements."""

    plugin_name: str

    def collect(self, job: GalaxyJob) -> dict[str, Any]:
        """Measurements for a finished job (may be empty)."""
        ...


class CoreMetricsPlugin:
    """Galaxy's ``core`` plugin: wall/queue time, slots, exit code."""

    plugin_name = "core"

    def collect(self, job: GalaxyJob) -> dict[str, Any]:
        metrics = job.metrics
        data: dict[str, Any] = {
            "galaxy_slots": int(job.params.get("threads", 1) or 1),
            "exit_code": job.exit_code,
            "destination_id": metrics.destination_id,
        }
        if metrics.runtime_seconds is not None:
            data["runtime_seconds"] = round(metrics.runtime_seconds, 6)
        if metrics.queue_seconds is not None:
            data["queue_seconds"] = round(metrics.queue_seconds, 6)
        return data


class GpuMetricsPlugin:
    """GYAN's hardware metrics: device summary + energy per job.

    Only reports for jobs the monitor sampled (GPU deployments); CPU
    jobs on monitored deployments report their (idle) device state too,
    which is itself informative — it proves the job never touched a GPU.
    """

    plugin_name = "gpu"

    def __init__(self, monitor, energy_meter=None) -> None:
        self.monitor = monitor
        self.energy_meter = energy_meter

    def collect(self, job: GalaxyJob) -> dict[str, Any]:
        if self.monitor is None or job.job_id not in self.monitor.sessions:
            return {}
        session = self.monitor.session_for(job.job_id)
        data: dict[str, Any] = {
            "samples": session.sample_count,
            "gpu_ids": list(job.metrics.gpu_ids),
        }
        for stat in session.statistics:
            prefix = f"gpu{stat.device_index}"
            data[f"{prefix}_util_avg_pct"] = round(stat.gpu_util_avg, 2)
            data[f"{prefix}_util_max_pct"] = round(stat.gpu_util_max, 2)
            data[f"{prefix}_fb_max_mib"] = stat.fb_used_max
        if self.energy_meter is not None:
            report = self.energy_meter.job_energy(job.job_id)
            data["energy_joules"] = round(report.total_joules, 2)
            data["mean_power_watts"] = round(report.mean_watts, 2)
        return data


class MetricsCollector:
    """Runs every registered plugin over finished jobs."""

    def __init__(self, plugins: list[JobMetricsPlugin] | None = None) -> None:
        self.plugins: list[JobMetricsPlugin] = list(plugins or [])

    def register(self, plugin: JobMetricsPlugin) -> None:
        """Add a plugin (order preserved; later same-name replaces)."""
        self.plugins = [
            p for p in self.plugins if p.plugin_name != plugin.plugin_name
        ] + [plugin]

    def collect(self, job: GalaxyJob) -> dict[str, dict[str, Any]]:
        """Run all plugins; results land on ``job.metrics.plugin_metrics``."""
        collected: dict[str, dict[str, Any]] = {}
        for plugin in self.plugins:
            data = plugin.collect(job)
            if data:
                collected[plugin.plugin_name] = data
        job.metrics.plugin_metrics = collected
        return collected
