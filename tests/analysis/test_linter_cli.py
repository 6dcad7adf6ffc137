"""End-to-end linter runs: exit codes, JSON output, suppressions, CLI."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.findings import Severity
from repro.analysis.linter import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_USAGE,
    LintOptions,
    lint_paths,
)
from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


def _run(paths, **kwargs):
    report = lint_paths([str(p) for p in paths], LintOptions(**kwargs))
    return report


class TestLintPaths:
    def test_good_fixtures_are_clean(self):
        report = _run([FIXTURES / "good"])
        assert report.findings == []
        assert report.files_checked == 2
        assert report.exit_code(Severity.ERROR) == EXIT_CLEAN

    def test_bad_fixtures_fail(self):
        report = _run([FIXTURES / "bad"])
        assert report.exit_code(Severity.ERROR) == EXIT_FINDINGS
        fired = {f.rule_id for f in report.findings}
        # Every config rule has a seeded fixture that trips it.
        assert {
            "GYAN100", "GYAN101", "GYAN102", "GYAN103", "GYAN104",
            "GYAN105", "GYAN106", "GYAN107", "GYAN108", "GYAN109",
        } <= fired

    def test_shipped_examples_are_clean(self):
        report = _run([REPO_ROOT / "examples"])
        assert report.findings == []
        assert report.exit_code(Severity.WARNING) == EXIT_CLEAN

    def test_repo_sources_are_clean(self):
        report = _run([REPO_ROOT / "src"])
        assert report.findings == []

    def test_missing_path_is_usage_error(self):
        report = _run(["no/such/path"])
        assert report.errors
        assert report.exit_code(Severity.ERROR) == EXIT_USAGE

    def test_fail_on_threshold(self):
        # GYAN103 is a warning: visible at --fail-on warning, ignored at
        # the default error threshold.
        paths = [FIXTURES / "bad" / "racon.xml", FIXTURES / "bad" / "job_conf.xml"]
        report = _run(paths)
        warnings = [f for f in report.findings if f.severity == Severity.WARNING]
        assert any(f.rule_id == "GYAN103" for f in warnings)
        errors = [f for f in report.findings if f.severity >= Severity.ERROR]
        assert report.exit_code(Severity.WARNING) == EXIT_FINDINGS
        if not errors:
            assert report.exit_code(Severity.ERROR) == EXIT_CLEAN

    def test_device_count_widens_range_check(self):
        path = FIXTURES / "bad" / "out_of_range.xml"
        assert _run([path]).exit_code(Severity.ERROR) == EXIT_FINDINGS
        assert _run([path], device_count=16).findings == []

    def test_findings_are_sorted_and_deduped(self):
        report = _run([FIXTURES / "bad", FIXTURES / "bad"])  # same dir twice
        keys = [(f.path, f.line or 0, f.rule_id) for f in report.findings]
        assert keys == sorted(keys)
        # Passing the directory twice must not double-count files.
        assert report.files_checked == len(list((FIXTURES / "bad").iterdir()))


class TestSuppressions:
    def test_xml_file_wide_suppression(self, tmp_path):
        bad = (FIXTURES / "bad" / "out_of_range.xml").read_text()
        suppressed = bad.replace(
            "<tool ", "<!-- gyan-lint: disable=GYAN102 -->\n<tool ", 1
        )
        target = tmp_path / "tool.xml"
        target.write_text(suppressed)
        assert _run([target]).findings == []

    def test_python_line_suppression(self, tmp_path):
        target = tmp_path / "gpusim" / "wall.py"
        target.parent.mkdir()
        target.write_text(
            "import time\n"
            "time.sleep(1)  # gyan-lint: disable=SRC201\n"
            "time.time()\n"
        )
        report = _run([target])
        assert [f.rule_id for f in report.findings] == ["SRC201"]
        assert report.findings[0].line == 3

    def test_python_file_wide_suppression(self, tmp_path):
        target = tmp_path / "core" / "wall.py"
        target.parent.mkdir()
        target.write_text(
            "# gyan-lint: disable-file=SRC201\n"
            "import time\n"
            "time.time()\n"
            "time.sleep(1)\n"
        )
        assert _run([target]).findings == []


    def test_xml_suppression_covers_the_cross_file_finding(self, tmp_path):
        """GYAN103 is raised against the tool by another file's content;
        the tool's own XML comment still suppresses it."""
        two = FIXTURES / "two_confs"
        for name in ("job_conf_second.xml", "boxed.xml"):
            (tmp_path / name).write_text((two / name).read_text())
        assert [f.rule_id for f in _run([tmp_path]).findings] == ["GYAN103"]
        boxed = tmp_path / "boxed.xml"
        boxed.write_text(boxed.read_text().replace(
            "<requirements>",
            "<requirements> <!-- gyan-lint: disable=GYAN102, GYAN103 -->",
        ))
        assert _run([tmp_path]).findings == []

    def test_python_pragma_scopes_and_the_audit(self, tmp_path):
        """``# gyan: disable=`` — line, def and file scope — through the
        same engine, and SUP001 only for families the run evaluated."""
        from repro.analysis.perf.driver import run_perf
        from repro.analysis.race.driver import RaceOptions, run_race

        target = tmp_path / "core" / "mod.py"
        target.parent.mkdir()
        target.write_text(
            "# gyan: disable-file=SRC201\n"
            "import random, time\n"
            "def f():  # gyan: disable=DET402\n"
            "    time.sleep(1)\n"
            "    return random.random()\n"
            "x = random.random()  # gyan: disable=DET402, PERF601\n"
            "y = random.random()\n"
        )

        def ids(report):
            return [(f.rule_id, f.line) for f in report.findings]

        # lint evaluates every family: the one stale ID is PERF601.
        assert ids(_run([target])) == [("SUP001", 6), ("DET402", 7)]
        # race evaluates DET only: PERF601 and SRC201 are out of scope.
        race = run_race(RaceOptions(paths=[str(target)], run_dynamic=False))
        assert ids(race) == [("DET402", 7)]
        # perf evaluates PERF only: it found nothing for PERF601 to hide.
        assert ids(run_perf([str(target)])) == [("SUP001", 6)]


class TestOneFrontEnd:
    """Every input is parsed once, and lint and verify group alike."""

    def test_each_python_file_is_parsed_once(self, tmp_path, monkeypatch):
        import ast

        from repro.analysis.perf.driver import run_perf
        from repro.analysis.race.driver import RaceOptions, run_race

        for name in ("a.py", "b.py", "c.py"):
            (tmp_path / name).write_text(
                "def f(xs):\n    return [x for x in xs]  # gyan: disable=PERF601\n"
            )
        parsed: list[str] = []
        real_parse = ast.parse

        def counting_parse(source, filename="<unknown>", *args, **kwargs):
            parsed.append(Path(filename).name)
            return real_parse(source, filename, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        for run in (
            lambda: _run([tmp_path]),
            lambda: run_perf([str(tmp_path)]),
            lambda: run_race(RaceOptions(paths=[str(tmp_path)], run_dynamic=False)),
        ):
            parsed.clear()
            assert run().files_checked == 3
            assert sorted(parsed) == ["a.py", "b.py", "c.py"]

    @pytest.mark.parametrize("directory, pairs", [
        (FIXTURES / "two_confs", 4),
        (REPO_ROOT / "examples" / "configs", 6),
    ])
    def test_lint_cross_checks_the_pairs_the_ir_holds(
        self, directory, pairs, monkeypatch
    ):
        from repro.analysis import linter
        from repro.analysis.verifier.ir import load_deployments

        def key(config):
            return sorted(
                (d.destination_id, sorted(d.params.items()))
                for d in config.destinations.values()
            )

        checked = []
        real_check = linter.analyze_tool_against_job_conf

        def recording_check(tool, path, config):
            checked.append((tool.tool_id, key(config)))
            return real_check(tool, path, config)

        monkeypatch.setattr(linter, "analyze_tool_against_job_conf", recording_check)
        _run([directory])
        deployments, _findings, _errors = load_deployments([str(directory)])
        held = [
            (node.tool_id, key(ir.config))
            for ir in deployments for node in ir.tools
        ]
        assert len(held) == pairs
        assert sorted(checked) == sorted(held)

    def test_two_job_confs_in_one_directory(self):
        """Both tools belong to both deployments; only the second
        job_conf makes them wrong."""
        from repro.analysis.verifier.driver import verify_paths

        two = FIXTURES / "two_confs"
        lint = _run([two])
        assert [(f.rule_id, Path(f.path).name) for f in lint.findings] == [
            ("GYAN103", "boxed.xml")
        ]
        verify = verify_paths([str(two)])
        assert verify.deployments_checked == 2
        assert [(f.rule_id, Path(f.path).name) for f in verify.findings] == [
            ("VER201", "charon.xml")
        ]
        # Each job_conf alone, with the same tools, finds the same.
        for name, expected in (("job_conf_first.xml", []),
                               ("job_conf_second.xml", ["VER201"])):
            alone = verify_paths(
                [str(two / name), str(two / "boxed.xml"), str(two / "charon.xml")]
            )
            assert [f.rule_id for f in alone.findings] == expected


class TestJsonOutput:
    def test_json_is_parseable_and_structured(self):
        report = _run([FIXTURES / "bad"])
        payload = json.loads(report.render_json())
        assert payload["files_checked"] == report.files_checked
        assert len(payload["findings"]) == len(report.findings)
        first = payload["findings"][0]
        assert {"rule_id", "severity", "message", "path"} <= set(first)

    def test_clean_run_renders_empty_findings(self):
        payload = json.loads(_run([FIXTURES / "good"]).render_json())
        assert payload["findings"] == []


class TestCli:
    # Clean → 0, missing path → 2 and --format json are pinned for all
    # four analyzers at once in test_findings_contract.py.
    def test_lint_bad_exits_findings(self, capsys):
        code = main(["lint", str(FIXTURES / "bad")])
        assert code == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "GYAN107" in out

    def test_lint_json_flag(self, capsys):
        code = main(["lint", "--format", "json", str(FIXTURES / "bad")])
        assert code == EXIT_FINDINGS
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"]

    def test_fail_on_warning_flag(self, capsys):
        code = main([
            "lint", "--fail-on", "warning",
            str(FIXTURES / "bad" / "racon.xml"),
            str(FIXTURES / "bad" / "job_conf.xml"),
        ])
        assert code == EXIT_FINDINGS
        assert "GYAN103" in capsys.readouterr().out

    def test_devices_flag(self, capsys):
        code = main([
            "lint", "--devices", "16", str(FIXTURES / "bad" / "out_of_range.xml")
        ])
        capsys.readouterr()
        assert code == EXIT_CLEAN

    def test_no_paths_is_usage_error(self, capsys):
        code = main(["lint"])
        assert code == EXIT_USAGE
        assert "path" in capsys.readouterr().err.lower()

    def test_negative_devices_is_usage_error(self, capsys):
        code = main(["lint", "--devices", "-1", str(FIXTURES / "good")])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "lint: --devices must be 0 or more, got -1\n"
        assert main(
            ["verify", "--devices", "-1", str(FIXTURES / "deployments" / "clean")]
        ) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("verify: --devices must be")

    def test_zero_devices_host_has_no_gpu_devices(self, capsys):
        code = main([
            "lint", "--devices", "0", str(FIXTURES / "bad" / "out_of_range.xml")
        ])
        assert code == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "GYAN102" in out
        assert "the configured host has no GPU devices" in out
        assert "0...-1" not in out

    def test_list_rules(self, capsys):
        code = main(["lint", "--list-rules"])
        assert code == EXIT_CLEAN
        out = capsys.readouterr().out
        for rule_id in ("GYAN100", "SRC201", "SIM301"):
            assert rule_id in out


@pytest.mark.parametrize("name,expected", [
    ("error", Severity.ERROR),
    ("warning", Severity.WARNING),
    ("info", Severity.INFO),
])
def test_severity_from_name(name, expected):
    assert Severity.from_name(name) is expected


class TestDeterminism:
    def test_json_output_is_byte_stable_across_runs(self):
        """Two identical lint runs must render byte-identical JSON —
        CI diffs and caching depend on it."""
        first = _run([FIXTURES / "bad", FIXTURES / "good"])
        second = _run([FIXTURES / "bad", FIXTURES / "good"])
        assert first.render_json() == second.render_json()
        assert first.render_text() == second.render_text()

    def test_findings_totally_ordered(self):
        from repro.analysis.linter import finding_sort_key

        report = _run([FIXTURES / "bad"])
        keys = [finding_sort_key(f) for f in report.findings]
        assert keys == sorted(keys)
        # The key covers every finding attribute that renders, so equal
        # keys mean identical output lines — no unstable ties.
        assert len(set(keys)) == len(keys)
