"""gyan-perf end-to-end: driver, suppressions, baseline ratchet, CLI."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.baseline import load_baseline, render_baseline, write_baseline
from repro.analysis.findings import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE, Severity
from repro.analysis.perf import driver
from repro.analysis.perf.driver import PERF_SCHEMA, PerfOptions, run_perf
from repro.analysis.sources import parse_python
from repro.analysis.suppressions import SuppressionSet
from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
PERF_BAD = FIXTURES / "perf_bad"
REPO_ROOT = Path(__file__).resolve().parents[2]


#: Entry points of the simulator's hot loops, each declared with
#: ``@hot_path``.  Each must be a seed in its own right (the decorator on
#: its definition), not merely hot because some other seed reaches it.
TIMED_ENTRY_POINTS = [
    "repro.analysis.race.clock_shim.PermutingClock.advance_to",
    "repro.cluster.fleet.FleetSimulator._at",
    "repro.cluster.fleet.FleetSimulator._drain_queue",
    "repro.cluster.fleet.FleetSimulator._fill_gpu",
    "repro.cluster.fleet.FleetSimulator._on_eval",
    "repro.cluster.fleet.FleetSimulator._on_span_done",
    "repro.cluster.fleet.FleetSimulator._place_range",
    "repro.cluster.fleet.FleetSimulator.run",
    "repro.cluster.jobstore.JobStore.append_batch",
    "repro.cluster.jobstore.JobStore.start_span",
    "repro.cluster.placement.PackIndex.take",
    "repro.cluster.placement.SpreadIndex.take",
    "repro.core.mapper.GpuComputationMapper.prepare_environment",
    "repro.core.monitor.GPUUsageMonitor.start",
    "repro.core.monitor.GPUUsageMonitor.statistics_report",
    "repro.core.monitor.GPUUsageMonitor.stop",
    "repro.core.monitor.GPUUsageMonitor.to_csv",
    "repro.gpusim.clock.Timeline.between",
    "repro.gpusim.clock.Timeline.labelled",
    "repro.gpusim.clock.Timeline.record",
    "repro.gpusim.clock.VirtualClock.advance",
    "repro.workloads.chaos.run_chaos",
    "repro.workloads.diurnal.diurnal_batches",
    "repro.workloads.storm.run_storm",
]


def analyze_sources(sources: list[tuple[str, str]]):
    """The PERF engine over ``(path, text)`` pairs, parsed where the
    loader parses."""
    return driver.analyze_sources(
        [(path, parse_python(text, path)) for path, text in sources]
    )


def _run(paths, **kwargs):
    return run_perf([str(p) for p in paths], PerfOptions(**kwargs))


class TestRunPerf:
    def test_bad_fixtures_fail_with_all_six_rules(self):
        report = _run([PERF_BAD])
        assert report.exit_code(Severity.ERROR) == EXIT_FINDINGS
        assert {f.rule_id for f in report.findings} == {
            "PERF601", "PERF602", "PERF603", "PERF604", "PERF605", "PERF606",
        }
        # Every fixture is @hot_path-annotated, so every finding is a hot
        # error carrying its seed→function chain.
        for finding in report.findings:
            assert finding.severity is Severity.ERROR
            assert finding.hot and finding.chain
            assert finding.chain.startswith("anno:")
            assert "[hot via " in finding.format_text()

    def test_shipped_sources_clean_at_error(self):
        report = _run([REPO_ROOT / "src"])
        assert report.errors == []
        hot_errors = [f for f in report.findings if f.severity >= Severity.ERROR]
        assert hot_errors == []
        assert report.exit_code(Severity.ERROR) == EXIT_CLEAN
        assert all(s.startswith("anno:") for s in report.seeds)
        assert report.hot_functions > 0
        assert report.graph_functions > report.hot_functions

    def test_timed_entry_points_are_annotation_seeds(self):
        report = _run([REPO_ROOT / "src" / "repro"])
        missing = [
            entry for entry in TIMED_ENTRY_POINTS
            if f"anno:{entry}" not in report.seeds
        ]
        assert missing == []

    def test_json_is_byte_identical_across_runs(self):
        first = _run([PERF_BAD])
        second = _run([PERF_BAD])
        assert first.render_json() == second.render_json()
        assert first.render_text() == second.render_text()

    def test_json_schema_and_shape(self):
        payload = json.loads(_run([PERF_BAD]).render_json())
        assert payload["schema"] == PERF_SCHEMA
        assert payload["files_checked"] == 6
        assert payload["graph"]["functions"] >= 6
        assert payload["hot"]["functions"] >= 6
        first = payload["findings"][0]
        assert {"rule_id", "severity", "function", "hot", "chain"} <= set(first)

    def test_missing_path_is_usage_error(self):
        report = _run(["no/such/dir"])
        assert report.errors
        assert report.exit_code(Severity.ERROR) == EXIT_USAGE


class TestGoldenJson:
    SOURCE = (
        "from repro.hotpath import hot_path\n"
        "@hot_path\n"
        "def render(samples):\n"
        "    out = ''\n"
        "    for s in samples:\n"
        "        out += f'{s}!'\n"
        "    return out\n"
    )

    def test_finding_dict_is_exactly_this(self):
        findings, _graph, _model = analyze_sources([("mod.py", self.SOURCE)])
        assert [f.as_dict() for f in findings] == [{
            "rule_id": "PERF601",
            "severity": "error",
            "message": "string built up with += inside a loop — quadratic "
                       "reallocation, one copy per row",
            "path": "mod.py",
            "line": 6,
            "suggestion": "collect parts in a list and ''.join() once (or "
                          "stream buffered chunks)",
            "function": "mod.render",
            "hot": True,
            "chain": "anno:mod.render → mod.render",
        }]

    def test_cold_code_downgrades_to_info(self):
        cold = self.SOURCE.replace("@hot_path\n", "")
        findings, _graph, _model = analyze_sources([("mod.py", cold)])
        [finding] = findings
        assert finding.severity is Severity.INFO
        assert not finding.hot and finding.chain is None


class TestInlineSuppressions:
    def test_line_scope_suppresses_and_counts_as_used(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(
            "def render(samples):\n"
            "    out = ''\n"
            "    for s in samples:\n"
            "        out += f'{s}!'  # gyan: disable=PERF601\n"
            "    return out\n"
        )
        report = _run([target])
        assert report.findings == []

    def test_def_scope_covers_whole_function(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(
            "def render(samples):  # gyan: disable=PERF601\n"
            "    out = ''\n"
            "    for s in samples:\n"
            "        out += f'{s}!'\n"
            "    return out\n"
        )
        assert _run([target]).findings == []

    def test_unused_suppression_raises_sup001(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("x = 1  # gyan: disable=PERF601\n")
        report = _run([target])
        assert [f.rule_id for f in report.findings] == ["SUP001"]
        assert report.findings[0].severity is Severity.WARNING

    def test_det_pragma_not_audited_by_perf_run(self, tmp_path):
        """A DET4xx pragma is out of scope for perf: no SUP001."""
        target = tmp_path / "mod.py"
        target.write_text("x = 1  # gyan: disable=DET401\n")
        assert _run([target]).findings == []

    def test_all_ast_families_honor_the_new_syntax(self):
        """SuppressionSet is family-agnostic: SRC/DET/PERF all filter."""
        from repro.analysis.findings import Finding

        text = "import time\ntime.sleep(1)  # gyan: disable=SRC201\n"
        suppressions = SuppressionSet.parse(text, parse_python(text, "mod.py"))
        findings = [
            Finding("SRC201", Severity.ERROR, "sleep", "mod.py", 2),
            Finding("SRC201", Severity.ERROR, "sleep", "mod.py", 1),
        ]
        kept = suppressions.filter(findings)
        assert [f.line for f in kept] == [1]


class TestBaseline:
    def test_write_then_apply_round_trips_to_clean(self, tmp_path):
        baseline_path = tmp_path / "perf-baseline.json"
        first = _run([PERF_BAD], write_baseline_path=str(baseline_path))
        assert first.findings
        second = _run([PERF_BAD], baseline=str(baseline_path))
        assert second.findings == []
        assert second.baselined == len(first.findings)
        assert second.exit_code(Severity.ERROR) == EXIT_CLEAN

    def test_new_findings_survive_the_ratchet(self, tmp_path):
        baseline_path = tmp_path / "baseline.json"
        write_baseline(_run([PERF_BAD / "perf601_per_row.py"]).findings,
                       str(baseline_path))
        report = _run(
            [PERF_BAD / "perf601_per_row.py", PERF_BAD / "perf606_clone.py"],
            baseline=str(baseline_path),
        )
        assert {f.rule_id for f in report.findings} == {"PERF606"}

    def test_capture_is_byte_deterministic(self, tmp_path):
        findings = _run([PERF_BAD]).findings
        assert render_baseline(findings) == render_baseline(list(findings))
        path = tmp_path / "b.json"
        write_baseline(findings, str(path))
        assert path.read_text() == render_baseline(findings)

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"schema": "nope", "entries": []}))
        with pytest.raises(ValueError):
            load_baseline(str(path))

    def test_lint_honors_the_same_ratchet(self, tmp_path):
        from repro.analysis.linter import LintOptions, lint_paths

        baseline_path = tmp_path / "lint-baseline.json"
        first = lint_paths(
            [str(FIXTURES / "bad")],
            LintOptions(write_baseline_path=str(baseline_path)),
        )
        assert first.findings
        second = lint_paths(
            [str(FIXTURES / "bad")], LintOptions(baseline=str(baseline_path))
        )
        assert second.findings == []
        assert second.baselined == len(first.findings)


class TestPerfCli:
    def test_perf_bad_exits_findings(self, capsys):
        code = main(["perf", str(PERF_BAD)])
        assert code == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "PERF601" in out and "[hot via anno:" in out

    def test_json_flag_emits_schema(self, capsys):
        code = main(["perf", "--format", "json", str(PERF_BAD)])
        assert code == EXIT_FINDINGS
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == PERF_SCHEMA

    def test_report_does_not_depend_on_the_working_directory(
        self, capsys, monkeypatch, tmp_path
    ):
        argv = ["perf", "--format", "json", str(REPO_ROOT / "src" / "repro")]
        monkeypatch.chdir(REPO_ROOT)
        assert main(argv) == EXIT_CLEAN
        from_root = capsys.readouterr().out
        monkeypatch.chdir(tmp_path)
        assert main(argv) == EXIT_CLEAN
        assert capsys.readouterr().out == from_root

    def test_list_rules_shows_performance_family(self, capsys):
        code = main(["perf", "--list-rules"])
        assert code == EXIT_CLEAN
        out = capsys.readouterr().out
        for rule_id in ("PERF601", "PERF602", "PERF603",
                        "PERF604", "PERF605", "PERF606", "SUP001"):
            assert rule_id in out

    def test_lint_list_rules_shows_the_family_too(self, capsys):
        code = main(["lint", "--list-rules"])
        assert code == EXIT_CLEAN
        assert "PERF601" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", [
        ["--profile", "profile.json"], ["--no-profile"],
    ], ids=["profile", "no-profile"])
    def test_profile_flags_are_gone(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["perf", *flag, str(PERF_BAD)])
        assert exc.value.code == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err


class TestLintIntegration:
    def test_lint_reports_perf_findings_on_python(self):
        from repro.analysis.linter import LintOptions, lint_paths

        report = lint_paths([str(PERF_BAD)], LintOptions())
        assert {f.rule_id for f in report.findings} >= {
            "PERF601", "PERF602", "PERF603", "PERF604", "PERF605", "PERF606",
        }
