"""Golden-file tests: freeze every serialised surface the repo ships.

Each test renders one externally-consumed artifact — the ``nvidia-smi``
emulator's XML/table output, the JSON of ``lint``/``verify``,
the four analyzers' CLI output, the paper commands' stdout, the four
``trace`` artifacts and the burst storm's JSON — and
compares it byte-for-byte against a checked-in snapshot under
``tests/golden/goldens/``.  Schema drift
(a renamed key, a reordered field, a changed number format) fails CI
with a readable unified diff instead of a silent consumer break.

To bless an intentional change::

    GYAN_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/golden

then review the golden diff like any other code change.
"""

from __future__ import annotations

import difflib
import os
from pathlib import Path

import pytest

HERE = Path(__file__).parent
GOLDEN_DIR = HERE / "goldens"
UPDATE_VAR = "GYAN_UPDATE_GOLDENS"


def assert_matches_golden(name: str, actual: str) -> None:
    """Compare ``actual`` to ``goldens/<name>``, or rewrite it in update mode."""
    path = GOLDEN_DIR / name
    if os.environ.get(UPDATE_VAR) == "1":
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(actual, encoding="utf-8")
        return
    if not path.exists():
        pytest.fail(
            f"missing golden file goldens/{name} — generate it with "
            f"{UPDATE_VAR}=1 python -m pytest tests/golden"
        )
    expected = path.read_text(encoding="utf-8")
    if actual == expected:
        return
    diff = "".join(
        difflib.unified_diff(
            expected.splitlines(keepends=True),
            actual.splitlines(keepends=True),
            fromfile=f"goldens/{name} (checked in)",
            tofile=f"{name} (this run)",
        )
    )
    pytest.fail(
        f"output drifted from goldens/{name}:\n{diff}"
        f"if the change is intentional, bless it with "
        f"{UPDATE_VAR}=1 python -m pytest tests/golden",
        pytrace=False,
    )


# --------------------------------------------------------------------- #
# nvidia-smi emulator
# --------------------------------------------------------------------- #
def _busy_host():
    """A deterministic two-GPU host with processes on both dies."""
    from repro.gpusim.host import GPUHost

    host = GPUHost(device_count=2)
    heavy = host.launch_process(
        name="/usr/bin/racon_gpu", cuda_visible_devices="0"
    )
    host.device(0).memory.alloc(2_048 * 1024 * 1024, heavy.pid)
    host.launch_process(name="/usr/bin/bonito", cuda_visible_devices="1")
    host.clock.advance(42.5)
    return host


class TestSmiGoldens:
    def test_query_xml(self):
        from repro.gpusim.smi import run_query

        stdout, stderr = run_query(_busy_host(), "-q -x")
        assert stderr == ""
        assert_matches_golden("smi_query.xml", stdout)

    def test_console_table(self):
        from repro.gpusim.smi import render_table

        assert_matches_golden("smi_table.txt", render_table(_busy_host()))

    def test_topology_matrix(self):
        from repro.gpusim.smi import render_topology

        assert_matches_golden("smi_topology.txt", render_topology(_busy_host()))


# --------------------------------------------------------------------- #
# lint / verify JSON
# --------------------------------------------------------------------- #
class TestAnalysisGoldens:
    def test_lint_json(self, monkeypatch):
        from repro.analysis.linter import LintOptions, lint_paths

        monkeypatch.chdir(HERE)
        report = lint_paths(["fixtures/lint"], LintOptions())
        assert report.findings, "the fixture must keep tripping rules"
        assert_matches_golden("lint.json", report.render_json() + "\n")

    def test_verify_json(self, monkeypatch):
        from repro.analysis.verifier.driver import VerifyOptions, verify_paths
        from repro.analysis.verifier.model_check import Scope

        monkeypatch.chdir(HERE)
        options = VerifyOptions(
            scope=Scope(devices=2, jobs=2, faults=1, max_replays=60)
        )
        report = verify_paths(["fixtures/verify"], options)
        assert not report.errors
        assert report.findings, "the fixture must keep tripping passes"
        assert_matches_golden("verify.json", report.render_json() + "\n")

    # The four analyzers through the CLI on the seeded-bad fixtures of
    # tests/analysis: stdout exactly as printed, and exit status 1.
    @pytest.mark.parametrize("golden, argv", [
        ("analyzers/lint.txt", ["lint", "analysis/fixtures/bad"]),
        ("analyzers/verify.txt", ["verify", "analysis/fixtures/deployments"]),
        ("analyzers/perf.txt",
         ["perf", "analysis/fixtures/perf_bad"]),
        ("analyzers/perf.json",
         ["perf", "--format", "json", "analysis/fixtures/perf_bad"]),
        ("analyzers/race.txt",
         ["race", "--static-only", "analysis/fixtures/race_bad"]),
        ("analyzers/race.json",
         ["race", "--static-only", "--format", "json",
          "analysis/fixtures/race_bad"]),
    ])
    def test_analyzer_cli_stdout(self, golden, argv, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.chdir(HERE.parent)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert_matches_golden(golden, captured.out)


# --------------------------------------------------------------------- #
# the paper's commands: one job per CLI call, stdout exactly as printed
# --------------------------------------------------------------------- #
class TestPaperCliGoldens:
    # ``experiment stalls`` reads every launch the Racon dataset job
    # records in the CudaProfiler, so it pins the kernels' count, order
    # and timing, not only the job's totals.
    @pytest.mark.parametrize("golden, argv", [
        ("paper_cli/racon_dataset.txt", ["racon", "--workload", "dataset"]),
        ("paper_cli/racon_dataset_container.txt",
         ["racon", "--workload", "dataset", "--container"]),
        ("paper_cli/racon_dataset_banded.txt",
         ["racon", "--workload", "dataset", "--batches", "4", "--banded"]),
        ("paper_cli/racon_unit.txt", ["racon"]),
        ("paper_cli/bonito.txt", ["bonito"]),
        ("paper_cli/bonito_klebsiella.txt",
         ["bonito", "--dataset", "Klebsiella_pneumoniae_KSB2"]),
        ("paper_cli/cases.txt", ["cases"]),
        ("paper_cli/experiment_stalls.txt", ["experiment", "stalls"]),
    ])
    def test_paper_cli_stdout(self, golden, argv, capsys):
        from repro.cli import main

        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert_matches_golden(golden, captured.out)


# --------------------------------------------------------------------- #
# fleet JSON (fully deterministic: virtual clock only, no masking)
# --------------------------------------------------------------------- #
def _fleet_day():
    """A small half-day with a storm: enough to grow and drain the pool."""
    from repro.workloads.diurnal import BurstStorm, DiurnalProfile

    return DiurnalProfile(
        users=300, jobs_per_user_day=3.0, days=0.5, tick_seconds=300.0,
        seed=11,
        storms=(BurstStorm(start=20_000.0, duration=4_000.0,
                           multiplier=6.0),),
    )


class TestFleetGoldens:
    def test_static_fleet_json(self):
        from repro.cluster.fleet import FleetConfig, run_fleet

        result = run_fleet(
            FleetConfig(nodes=4, gpus_per_node=2, queue_limit=4,
                        deadline_seconds=1800.0),
            _fleet_day(),
        )
        assert_matches_golden("fleet/static.json", result.to_json())

    def test_autoscaled_fleet_json(self):
        from repro.cluster.autoscale import AutoscalerConfig
        from repro.cluster.fleet import FleetConfig, run_fleet

        auto = AutoscalerConfig(
            min_nodes=2, max_nodes=6, eval_interval_s=300.0,
            provision_lag_s=600.0, scale_up_step=2, scale_down_step=2,
            hysteresis_windows=2, cooldown_s=600.0,
        )
        result = run_fleet(
            FleetConfig(nodes=6, gpus_per_node=2, queue_limit=4,
                        deadline_seconds=1800.0, autoscale=auto),
            _fleet_day(),
        )
        # The golden must freeze a run that actually flexes the pool:
        # growth, drain and the cost meter all appear in the payload.
        assert result.scale_ups > 0 and result.scale_downs > 0
        assert_matches_golden("fleet/autoscale.json", result.to_json())

    @pytest.mark.parametrize(
        "policy", ["spread", "pack", "benefit-aware"]
    )
    def test_stressed_elastic_fleet_prometheus(self, policy):
        """The fleet's whole metric registry after a storm day that
        sheds both ways, drains queues, loses nodes mid-span and drains
        the elastic pool back in — histogram ``_sum`` lines included."""
        from repro.cluster.autoscale import AutoscalerConfig
        from repro.cluster.fleet import FleetConfig, FleetSimulator, NodeFailure
        from repro.workloads.diurnal import (
            BurstStorm,
            DiurnalProfile,
            diurnal_batches,
        )

        profile = DiurnalProfile(
            users=1500, jobs_per_user_day=3.0, days=0.5, tick_seconds=300.0,
            seed=11,
            storms=(BurstStorm(start=20_000.0, duration=4_000.0,
                               multiplier=10.0),),
        )
        auto = AutoscalerConfig(
            min_nodes=2, max_nodes=6, eval_interval_s=300.0,
            provision_lag_s=600.0, scale_up_step=2, scale_down_step=2,
            hysteresis_windows=2, cooldown_s=600.0,
        )
        outages = ((21_000.0, 0), (21_300.0, 1), (22_000.0, 3),
                   (22_200.0, 2), (22_400.0, 4), (26_000.0, 5),
                   (30_000.0, 4))
        simulator = FleetSimulator(
            FleetConfig(
                nodes=6, gpus_per_node=2, queue_limit=4,
                deadline_seconds=900.0, max_hops=1, placement=policy,
                autoscale=auto,
                failures=tuple(NodeFailure(t, node, 900.0)
                               for t, node in outages),
            ),
            profile.tools,
        )
        result = simulator.run(diurnal_batches(profile))
        assert set(result.shed) == {"queue_full", "deadline_expired"}
        assert result.queued and result.resubmitted and result.quarantines
        assert result.scale_downs and result.decommissioned_nodes
        assert_matches_golden(
            f"fleet/metrics-{policy}.prom",
            simulator.metrics.render_prometheus(),
        )

    def test_fleet_ab_cli_json(self, capsys):
        from repro.cli import main

        assert main([
            "fleet", "--ab", "--jobs", "4000", "--nodes", "8",
            "--gpus-per-node", "2", "--queue-limit", "4",
            "--format", "json",
        ]) == 0
        assert_matches_golden("fleet/ab.json", capsys.readouterr().out)


# --------------------------------------------------------------------- #
# trace artifacts
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def workload_artifacts():
    from repro.observability.driver import trace_workload

    return trace_workload(jobs=4, interarrival=2.0, seed=3)


class TestTraceGoldens:
    def test_perfetto(self, workload_artifacts):
        assert_matches_golden(
            "trace/trace.perfetto.json", workload_artifacts.perfetto
        )

    def test_prometheus(self, workload_artifacts):
        assert_matches_golden(
            "trace/metrics.prom", workload_artifacts.prometheus
        )

    def test_timeline(self, workload_artifacts):
        assert_matches_golden(
            "trace/timeline.txt", workload_artifacts.timeline
        )

    def test_summary(self, workload_artifacts):
        assert_matches_golden(
            "trace/summary.json", workload_artifacts.summary_json()
        )

    # The wait policy's hold-and-drain path, untraced (text) and traced
    # (json summary).
    @pytest.mark.parametrize("golden, extra", [
        ("trace/wait_memory.txt", []),
        ("trace/wait_memory.json", ["--format", "json"]),
    ])
    def test_wait_policy_cli_stdout(self, golden, extra, capsys):
        from repro.cli import main

        argv = ["trace", "--jobs", "12", "--policy", "wait",
                "--allocation", "memory"]
        assert main(argv + extra) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert_matches_golden(golden, captured.out)

    def test_chaos_summary(self):
        from repro.observability.driver import trace_chaos
        from repro.workloads.chaos import resolve_plan

        artifacts = trace_chaos(resolve_plan("k80-die-midrun", seed=2), jobs=4)
        assert_matches_golden(
            "trace/chaos_summary.json", artifacts.summary_json()
        )


# --------------------------------------------------------------------- #
# burst storm JSON (launch/finish overlap on the virtual clock)
# --------------------------------------------------------------------- #
class TestStormGoldens:
    # The stock run crashes at its first injected NVML flake and exits
    # 1; the golden pins how far it got.
    @pytest.mark.parametrize("golden, extra, status", [
        ("storm/hardened.json", [], 0),
        ("storm/stock.json", ["--no-hardening"], 1),
    ])
    def test_storm_cli_json(self, golden, extra, status, capsys):
        from repro.cli import main

        argv = ["storm", "--jobs", "48", "--seed", "0", "--format", "json"]
        assert main(argv + extra) == status
        captured = capsys.readouterr()
        assert captured.err == ""
        assert_matches_golden(golden, captured.out)
