"""``python -m repro race``: options, report, and the two-layer run.

Mirrors the verifier driver's shape: a :class:`RaceOptions` the CLI
fills in, a :class:`RaceReport` that renders byte-deterministic text or
JSON, and one entry point, :func:`run_race`, that runs the static
DET4xx pass over the given paths and the dynamic happens-before check
over the selected scenarios.  :func:`run_schedule_replay` is the
``--schedule FILE`` arm: it replays a saved tie-flip schedule and
reports whether the divergence reproduces.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.analysis.findings import FindingsReport, finding_sort_key
from repro.analysis.race import checker
from repro.analysis.race.clock_shim import Schedule
from repro.analysis.sources import load_sources, python_findings
from repro.observability.export import render_document

#: Schema identifier stamped into the JSON report.
REPORT_SCHEMA = "gyan.race-report/v1"


@dataclass
class RaceOptions:
    """Knobs the CLI exposes."""

    #: Files/directories for the static DET4xx pass (.py files only).
    paths: list[str] = field(default_factory=list)
    #: Dynamic scenarios to permute (None = every default scenario).
    scenarios: list[str] | None = None
    #: Max seeded permutations tried per surviving (non-pruned) tie.
    permutations: int = 3
    seed: int = 0
    run_static: bool = True
    run_dynamic: bool = True


@dataclass
class RaceReport(FindingsReport):
    """Everything one race run produced, byte-stably renderable."""

    files_checked: int = 0
    scenarios_run: list[str] = field(default_factory=list)
    ties_observed: int = 0
    ties_pruned: int = 0
    replays: int = 0
    #: Divergence-reproducing schedules (gyan.race/v1 dicts), in finding
    #: order; feed one to ``--schedule`` to replay it.
    schedules: list[dict] = field(default_factory=list)

    def summary_lines(self) -> list[str]:
        lines = [
            f"{self.files_checked} file(s) checked, "
            f"{len(self.scenarios_run)} scenario(s) permuted "
            f"({self.ties_observed} tie(s), {self.ties_pruned} pruned "
            f"commutative, {self.replays} replay(s)), "
            f"{len(self.findings)} finding(s)"
        ]
        for index, schedule in enumerate(self.schedules):
            lines.append(
                f"schedule #{index}: "
                + json.dumps(schedule, sort_keys=True)
            )
        return lines

    def payload(self) -> dict[str, Any]:
        return {
            "schema": REPORT_SCHEMA,
            "files_checked": self.files_checked,
            "scenarios_run": self.scenarios_run,
            "ties_observed": self.ties_observed,
            "ties_pruned": self.ties_pruned,
            "replays": self.replays,
            "findings": [f.as_dict() for f in self.findings],
            "schedules": self.schedules,
        }

    def render_json(self) -> str:
        """A whole ``gyan.race-report/v1`` document, newline included."""
        return render_document(self.payload())


def _dynamic_pass(options: RaceOptions, report: RaceReport) -> None:
    names = options.scenarios
    if names is None:
        names = checker.default_scenarios()
    for name in names:
        try:
            scenario = checker.get_scenario(name)
        except KeyError as exc:
            report.errors.append(str(exc))
            continue
        result = checker.check_scenario(
            scenario, permutations=options.permutations, seed=options.seed
        )
        report.scenarios_run.append(name)
        report.ties_observed += len(result.ties)
        report.ties_pruned += result.ties_pruned
        report.replays += result.replays
        report.findings.extend(result.findings)
        report.schedules.extend(result.schedules)


def run_race(options: RaceOptions | None = None) -> RaceReport:
    """Run the static and/or dynamic determinism layers."""
    options = options or RaceOptions()
    report = RaceReport()
    if options.run_static and options.paths:
        sources, report.errors = load_sources(options.paths, (".py",))
        # Only DET pragmas are audited for staleness: a PERF6xx
        # suppression belongs to a family this pass never evaluates.
        report.findings, _graph, _model = python_findings(sources, {"DET"})
        report.files_checked = len(sources)
    if options.run_dynamic:
        _dynamic_pass(options, report)
    report.findings.sort(key=finding_sort_key)
    report.scenarios_run.sort()
    return report


def run_schedule_replay(schedule_path: str | Path) -> RaceReport:
    """Replay a saved tie-flip schedule (``--schedule FILE``)."""
    report = RaceReport()
    try:
        schedule = Schedule.from_file(schedule_path)
    except (OSError, ValueError) as exc:
        report.errors.append(f"cannot load schedule {schedule_path}: {exc}")
        return report
    try:
        _changed, result = checker.replay_schedule(schedule)
    except KeyError as exc:
        report.errors.append(str(exc))
        return report
    report.scenarios_run.append(result.name)
    report.replays = result.replays
    report.findings.extend(result.findings)
    report.schedules.extend(result.schedules)
    report.findings.sort(key=finding_sort_key)
    return report
