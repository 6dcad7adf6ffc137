"""Job metrics plugins."""

import pytest

from repro.galaxy.metrics_plugins import GpuMetricsPlugin


class TestCorePlugin:
    def test_core_fields_on_finished_job(self, deployment):
        job = deployment.run_tool("racon", {"threads": 4, "workload": "unit"})
        core = job.metrics.plugin_metrics["core"]
        assert core["galaxy_slots"] == 4
        assert core["exit_code"] == 0
        assert core["destination_id"] == "local_gpu"
        assert core["runtime_seconds"] == pytest.approx(1.72, abs=0.01)
        assert core["queue_seconds"] == pytest.approx(0.0)


class TestGpuPlugin:
    def test_gpu_fields_for_gpu_job(self, deployment):
        job = deployment.run_tool("racon", {"threads": 4, "workload": "unit"})
        gpu = job.metrics.plugin_metrics["gpu"]
        assert gpu["gpu_ids"] == ["0"]
        assert gpu["samples"] >= 2
        assert gpu["gpu0_util_max_pct"] > 0
        assert gpu["gpu1_util_max_pct"] == 0
        assert gpu["energy_joules"] > 0
        assert 52.0 <= gpu["mean_power_watts"] <= 298.0

    def test_cpu_job_reports_idle_devices(self, deployment):
        job = deployment.run_tool("seqstats", {"threads": 1})
        gpu = job.metrics.plugin_metrics["gpu"]
        assert gpu["gpu_ids"] == []
        assert gpu["gpu0_util_max_pct"] == 0

    def test_unmonitored_job_skipped(self):
        plugin = GpuMetricsPlugin(monitor=None)
        from repro.galaxy.job import GalaxyJob
        from repro.galaxy.tool_xml import parse_tool_xml

        job = GalaxyJob(
            tool=parse_tool_xml('<tool id="t"><command>x</command></tool>')
        )
        assert plugin.collect(job) == {}


class TestCollector:
    def test_empty_plugin_results_omitted(self, deployment):
        class Silent:
            plugin_name = "silent"

            def collect(self, job):
                return {}

        deployment.app.metrics_collector.plugins.append(Silent())
        job = deployment.run_tool("racon", {"workload": "unit"})
        assert "silent" not in job.metrics.plugin_metrics
