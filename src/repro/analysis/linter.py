"""gyan-lint orchestration: load the inputs, dispatch analyzers, render.

The analyzers' one front end (:mod:`repro.analysis.sources`) finds,
reads, classifies and parses any mix of files and directories.  ``.xml``
files arrive as the runtime parser's own objects, macros resolved from
the wrapper's directory exactly as at runtime; ``.py`` files go through
every AST family — SRC2xx, DET4xx, and PERF6xx over the same
``@hot_path``-seeded hot set as ``python -m repro perf``.  The
cross-file check (container tool vs. destination capabilities) pairs a
tool with every job_conf whose deployment it belongs to, by the rule
``verify`` groups with (:func:`repro.analysis.verifier.ir.deployments_of`).

Suppressions — ``<!-- gyan-lint: disable=GYAN103 -->`` anywhere in an
XML file, ``# gyan-lint: disable=`` / ``# gyan: disable=`` in Python —
go through one engine, :mod:`repro.analysis.suppressions`.
``--baseline FILE`` subtracts a previously captured finding set so only
*new* findings affect the exit code (:mod:`repro.analysis.baseline`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar

from repro.analysis.config_rules import (
    ConfigContext,
    analyze_job_conf,
    analyze_tool,
    analyze_tool_against_job_conf,
)
# Re-exported: the exit codes live with the report spine in findings.py.
from repro.analysis.findings import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE  # noqa: F401
from repro.analysis.findings import Finding, FindingsReport, finding_sort_key
from repro.analysis.rules import FAMILY_DOCS, FAMILY_ORDER, GYAN100, REGISTRY
from repro.analysis.sources import load_sources, python_findings
from repro.analysis.suppressions import SuppressionSet
from repro.analysis.verifier.ir import deployments_of
from repro.galaxy.tool_xml import ToolDefinition


@dataclass
class LintOptions:
    """Knobs the CLI exposes."""

    device_count: int = 2
    baseline: str | None = None
    write_baseline_path: str | None = None


@dataclass
class LintReport(FindingsReport):
    """Everything one lint run produced."""

    files_checked: int = 0

    #: goldens/lint.json pins insertion key order, not sorted keys.
    JSON_SORT_KEYS: ClassVar[bool] = False

    def summary_lines(self) -> list[str]:
        summary = (
            f"{self.files_checked} file(s) checked, "
            f"{len(self.findings)} finding(s)"
        )
        if self.baselined:
            summary += f", {self.baselined} baselined"
        return [summary + self.severity_counts()]

    def payload(self) -> dict[str, Any]:
        return {
            "files_checked": self.files_checked,
            "findings": [f.as_dict() for f in self.findings],
        }


# --------------------------------------------------------------------- #
# the run
# --------------------------------------------------------------------- #
def lint_paths(paths: list[str], options: LintOptions | None = None) -> LintReport:
    """Lint every file reachable from ``paths``."""
    options = options or LintOptions()
    ctx = ConfigContext(device_count=options.device_count)
    report = LintReport()

    sources, report.errors = load_sources(paths, (".xml", ".py"))
    report.files_checked = len(sources)
    # Every AST family at once: PERF6xx needs the whole python file set
    # (hotness propagates across modules).
    report.findings, _graph, _model = python_findings(sources, None)

    # Cross-file: container tools vs. the destinations of every
    # deployment they belong to.
    cross: dict[str, list[Finding]] = {}
    for job_conf, members in deployments_of(sources):
        for tool in members:
            if isinstance(tool.parsed, ToolDefinition):
                path = str(tool.path)
                cross.setdefault(path, []).extend(
                    analyze_tool_against_job_conf(tool.parsed, path, job_conf.parsed)
                )

    for source in sources:
        path = str(source.path)
        if source.kind == "job_conf":
            found = analyze_job_conf(source.parsed, path, ctx)
        elif source.kind == "tool":
            found = analyze_tool(source.parsed, path, ctx) + cross.get(path, [])
        elif source.kind == "invalid":
            found = [GYAN100.finding("XML is not well-formed", path)]
        else:
            continue  # macros are consumed via tool imports
        report.findings += SuppressionSet.parse_xml(source.text).filter(found)

    report.findings.sort(key=finding_sort_key)
    report.ratchet(options.baseline, options.write_baseline_path)
    return report


def list_rules_text() -> str:
    """The ``--list-rules`` catalogue, grouped by rule family.

    Each family header carries its one-line doc from the registry, and
    each rule prints its id, default severity, and title, followed by a
    wrapped first sentence of its catalogue description.
    """
    lines = []
    for family in FAMILY_ORDER:
        doc = FAMILY_DOCS.get(family, "")
        lines.append(f"[{family}]" + (f"  {doc}" if doc else ""))
        for rule in REGISTRY.family(family):
            lines.append(
                f"  {rule.rule_id}  {str(rule.severity):<7}  {rule.title}"
            )
            sentence = rule.description.split(". ")[0].rstrip(".") + "."
            lines.append(f"           {sentence}")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
