"""The analyzer output contract, once for lint, verify, race and perf.

Every analyzer returns a :class:`FindingsReport` subclass and ends in
``repro.cli._emit_findings``; these tests pin what that spine promises
(``docs/linting.md``, "Analyzer output contract") on each tool alike.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from pathlib import Path

import pytest

from repro.analysis.findings import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_USAGE,
    FindingsReport,
)
from repro.analysis.linter import LintReport
from repro.analysis.perf.driver import PerfReport
from repro.analysis.race.driver import RaceReport
from repro.analysis.verifier.driver import VerifyReport
from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]
CLEAN_PY = str(REPO_ROOT / "src" / "repro" / "hotpath.py")

#: A stale pragma: SUP001, a warning, under lint and perf alike.
STALE_PRAGMA = "def f(xs):\n    return xs  # gyan: disable=PERF601\n"


@dataclass
class Tool:
    """One analyzer verb with its three canonical inputs."""

    name: str
    lead: list[str]  # flags that keep the run static and profile-free
    clean: str
    bad: str  # seeded-bad: findings at error severity
    warning: str | None  # warning-only; None = the stale-pragma file

    def __call__(self, target: str, *flags: str) -> int:
        return main([self.name, *self.lead, target, *flags])


TOOLS = [
    Tool("lint", [], str(FIXTURES / "good"), str(FIXTURES / "bad"), None),
    Tool(
        "verify", [],
        str(FIXTURES / "deployments" / "clean"),
        str(FIXTURES / "deployments" / "bad"),
        str(FIXTURES / "deployments" / "starvation"),
    ),
    Tool(
        "race", ["--static-only"], CLEAN_PY,
        str(FIXTURES / "race_bad"),
        str(FIXTURES / "race_bad" / "det404_float_accumulation.py"),
    ),
    Tool("perf", [], CLEAN_PY, str(FIXTURES / "perf_bad"), None),
]


@pytest.fixture(params=TOOLS, ids=lambda t: t.name)
def tool(request, tmp_path):
    if request.param.warning is not None:
        return request.param
    stale = tmp_path / "stale_pragma.py"
    stale.write_text(STALE_PRAGMA)
    return replace(request.param, warning=str(stale))


def _reported(text_stdout: str) -> int:
    """N of the summary's ``N finding(s)``."""
    return int(re.search(r"(\d+) finding\(s\)", text_stdout).group(1))


class TestExitCodes:
    def test_clean_exits_0(self, tool, capsys):
        assert tool(tool.clean) == EXIT_CLEAN
        captured = capsys.readouterr()
        assert captured.err == ""
        assert _reported(captured.out) == 0

    def test_bad_exits_1_at_every_threshold(self, tool, capsys):
        assert tool(tool.bad) == EXIT_FINDINGS
        assert tool(tool.bad, "--fail-on", "error") == EXIT_FINDINGS
        assert tool(tool.bad, "--fail-on", "info") == EXIT_FINDINGS
        assert "Traceback" not in capsys.readouterr().err

    def test_warning_only_follows_fail_on(self, tool, capsys):
        assert tool(tool.warning, "--fail-on", "error") == EXIT_CLEAN
        assert _reported(capsys.readouterr().out) > 0
        assert tool(tool.warning, "--fail-on", "warning") == EXIT_FINDINGS

    def test_missing_path_exits_2(self, tool, capsys):
        assert tool("does/not/exist") == EXIT_USAGE
        lines = capsys.readouterr().err.splitlines()
        assert lines
        assert all(line.startswith(f"{tool.name}: ") for line in lines)


class TestRendering:
    def test_json_findings_match_text_count(self, tool, capsys):
        tool(tool.bad)
        count = _reported(capsys.readouterr().out)
        assert tool(tool.bad, "--format", "json") == EXIT_FINDINGS
        stdout = capsys.readouterr().out
        assert stdout.endswith("}\n") and not stdout.endswith("\n\n")
        assert len(json.loads(stdout)["findings"]) == count > 0


@pytest.mark.parametrize(
    "report_class", [LintReport, VerifyReport, RaceReport, PerfReport]
)
def test_reports_share_the_one_exit_code(report_class):
    assert issubclass(report_class, FindingsReport)
    assert "exit_code" not in vars(report_class)
    assert "ratchet" not in vars(report_class)
    assert report_class().exit_code(fail_on=None) == EXIT_CLEAN
    assert report_class(errors=["x"]).exit_code(fail_on=None) == EXIT_USAGE


#: id → (tool, flag, document): outside input each loader once died on
#: with an AttributeError/TypeError traceback.
MALFORMED = {
    "baseline-entry-int":
        ("lint", "--baseline", {"schema": "gyan.baseline/v1", "entries": [1]}),
    "baseline-count-null":
        ("lint", "--baseline",
         {"schema": "gyan.baseline/v1", "entries": [{"count": None}]}),
    "baseline-entries-int":
        ("perf", "--baseline", {"schema": "gyan.baseline/v1", "entries": 7}),
    "schedule-list": ("race", "--schedule", []),
    "schedule-flip-int":
        ("race", "--schedule",
         {"schema": "gyan.race/v1", "scenario": "tie-demo", "flips": [1]}),
    "baseline-null": ("lint", "--baseline", None),
    "schedule-null": ("race", "--schedule", None),
}


@pytest.mark.parametrize(
    "name, flag, document", MALFORMED.values(), ids=list(MALFORMED)
)
def test_malformed_document_exits_2(name, flag, document, tmp_path, capsys):
    path = tmp_path / "document.json"
    path.write_text(json.dumps(document))
    target = [] if name == "race" else [CLEAN_PY]
    assert main([name, *target, flag, str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"{name}: cannot load ")
    assert err.count("\n") == 1 and str(path) in err
