"""One smoke test per CLI subcommand: parses, runs, exits as documented.

Deep behaviour lives in the per-feature suites (``test_cli.py``,
``analysis/test_linter_cli.py``, ``analysis/test_verifier.py``); this
module only guards the wiring — every subcommand stays invocable and
its exit-code contract holds.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import build_parser, main

REPO_ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = REPO_ROOT / "examples" / "configs"

ALL_COMMANDS = ("info", "smi", "topo", "racon", "bonito", "cases",
                "experiment", "trace", "lint", "faults", "verify", "race",
                "storm", "perf", "fleet")


def test_parser_registers_every_command():
    parser = build_parser()
    actions = [a for a in parser._actions if hasattr(a, "choices")
               and a.choices is not None]
    registered = set(actions[0].choices)
    assert registered == set(ALL_COMMANDS)


@pytest.mark.parametrize("argv", [
    ["info"],
    ["smi"],
    ["topo"],
    ["cases", "--case", "1"],
    ["experiment", "fig3"],
    ["trace", "--jobs", "4"],
])
def test_read_only_commands_exit_clean(argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out


def test_lint_smoke(capsys):
    assert main(["lint", str(EXAMPLES)]) == 0
    assert "finding(s)" in capsys.readouterr().out
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "[verifier]" in out and "VER401" in out


def test_perf_smoke(capsys):
    assert main(["perf", str(REPO_ROOT / "src")]) == 0
    assert "finding(s)" in capsys.readouterr().out
    assert main(["perf", "--list-rules"]) == 0
    assert "PERF601" in capsys.readouterr().out


def test_faults_smoke(capsys):
    assert main(["faults", "--scenario", "k80-die-midrun", "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert "survived" in out


def test_verify_smoke(capsys):
    assert main(["verify", str(EXAMPLES), "--no-model-check"]) == 0
    assert "deployment(s) checked" in capsys.readouterr().out


def test_usage_errors_are_exit_2(capsys):
    assert main(["lint"]) == 2
    assert main(["verify"]) == 2
    assert main(["faults", "--plan", "no/such/plan.json"]) == 2
    capsys.readouterr()


def test_storm_smoke(capsys):
    assert main(["storm", "--jobs", "16", "--no-faults"]) == 0
    out = capsys.readouterr().out
    assert "lost (admitted)" in out


def test_fleet_smoke(capsys):
    assert main(["fleet", "--jobs", "2000", "--nodes", "4",
                 "--gpus-per-node", "2"]) == 0
    out = capsys.readouterr().out
    assert "policy" in out and "node-seconds" in out
    # Conflicting pool bounds are a usage error, not a traceback.
    assert main(["fleet", "--autoscale", "--min-nodes", "9",
                 "--nodes", "4"]) == 2
