"""gyan-lint orchestration: walk paths, dispatch analyzers, render output.

The linter accepts any mix of files and directories.  ``.xml`` files are
classified by root tag (``<tool>``, ``<job_conf>``, ``<macros>``) and fed
to the config analyzers, with macros resolved from sibling files so a
wrapper's ``<import>macros.xml</import>`` works exactly as it does at
runtime.  ``.py`` files go through the AST passes.  Cross-file checks
(container tool vs. destination capabilities) pair each tool with the
job_conf in its own directory, falling back to the only job_conf in the
run.

Python files additionally run the PERF6xx performance family over the
same ``@hot_path``-seeded hot set as ``python -m repro perf``, which
adds the full report.

Suppressions:

* XML — a comment anywhere in the file:
  ``<!-- gyan-lint: disable=GYAN103 -->`` (comma-separate several IDs);
* Python — a trailing comment on the offending line:
  ``# gyan-lint: disable=SRC201``, or file-wide with
  ``# gyan-lint: disable-file=SRC201``; the richer
  ``# gyan: disable=<RULE>`` form additionally covers a whole function
  when placed on its ``def`` (or decorator) line, and warns (SUP001)
  when it suppressed nothing — see
  :mod:`repro.analysis.suppressions`.

``--baseline FILE`` subtracts a previously captured finding set so only
*new* findings affect the exit code (:mod:`repro.analysis.baseline`).
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Any, ClassVar

from repro.analysis.config_rules import (
    ConfigContext,
    analyze_job_conf_text,
    analyze_tool_against_job_conf,
    analyze_tool_text,
)
# Re-exported: the exit codes live with the report spine in findings.py.
from repro.analysis.findings import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE  # noqa: F401
from repro.analysis.findings import (
    Finding,
    FindingsReport,
    discover_files,
    finding_sort_key,
)
from repro.analysis.perf.driver import analyze_sources as _perf_analyze
from repro.analysis.race.det_rules import analyze_det_text
from repro.analysis.rules import FAMILY_DOCS, FAMILY_ORDER, GYAN100, REGISTRY
from repro.analysis.source_rules import analyze_source_text
from repro.analysis.suppressions import SuppressionSet

_SUPPRESS_RE = re.compile(r"gyan-lint:\s*disable(?P<scope>-file)?\s*=\s*(?P<ids>[A-Z0-9, ]+)")


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
# file classification and suppressions
# --------------------------------------------------------------------- #
def classify_xml(text: str) -> str | None:
    """Root tag of an XML document, or ``None`` when unparseable."""
    try:
        return ET.fromstring(text).tag
    except ET.ParseError:
        return None


def file_suppressions(text: str) -> tuple[set[str], dict[int, set[str]]]:
    """(file-wide suppressed IDs, per-line suppressed IDs) for one file."""
    file_wide: set[str] = set()
    per_line: dict[int, set[str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if not match:
            continue
        ids = {part.strip() for part in match.group("ids").split(",") if part.strip()}
        if match.group("scope") or line.lstrip().startswith("<!--"):
            # XML comments always suppress file-wide; ElementTree gives
            # findings no line numbers to match against.
            file_wide |= ids
        else:
            per_line.setdefault(lineno, set()).update(ids)
    return file_wide, per_line


def apply_suppressions(findings: list[Finding], text: str) -> list[Finding]:
    file_wide, per_line = file_suppressions(text)
    kept = []
    for finding in findings:
        if finding.rule_id in file_wide:
            continue
        if finding.line is not None and finding.rule_id in per_line.get(finding.line, set()):
            continue
        kept.append(finding)
    return kept


# --------------------------------------------------------------------- #
# the run
# --------------------------------------------------------------------- #
def lint_paths(paths: list[str], options: LintOptions | None = None) -> LintReport:
    """Lint every file reachable from ``paths``."""
    options = options or LintOptions()
    ctx = ConfigContext(device_count=options.device_count)
    report = LintReport()

    files, errors = discover_files(paths)
    report.errors.extend(errors)

    # First pass: read + classify, so macros and job_confs are available
    # to every tool wrapper in the run.
    texts: dict[Path, str] = {}
    kinds: dict[Path, str] = {}
    for path in files:
        try:
            texts[path] = path.read_text()
        except OSError as exc:
            report.errors.append(f"cannot read {path}: {exc}")
            continue
        if path.suffix == ".xml":
            kinds[path] = classify_xml(texts[path]) or "invalid"
        elif path.suffix == ".py":
            kinds[path] = "python"
        else:
            kinds[path] = "skip"  # explicitly-passed non-config file

    job_confs: dict[Path, object] = {}  # path -> parsed JobConfig
    tools: list[tuple[Path, object]] = []  # (path, ToolDefinition)

    # PERF6xx needs the whole python file set at once (hotness
    # propagates across modules), so it runs before the per-file loop.
    py_sources = [
        (str(path), texts[path])
        for path in files
        if path in texts and kinds.get(path) == "python"
    ]
    perf_findings, _graph, _model = _perf_analyze(py_sources)
    perf_by_path: dict[str, list[Finding]] = {}
    for finding in perf_findings:
        perf_by_path.setdefault(finding.path or "", []).append(finding)

    for path, text in texts.items():
        kind = kinds[path]
        if kind == "skip":
            continue
        findings: list[Finding] = []
        if kind == "python":
            findings = analyze_source_text(text, str(path))
            findings.extend(analyze_det_text(text, str(path)))
            findings.extend(perf_by_path.get(str(path), []))
        elif kind == "job_conf":
            config, findings = analyze_job_conf_text(text, str(path), ctx)
            if config is not None:
                job_confs[path] = config
        elif kind == "tool":
            macros = _sibling_macros(path, texts, kinds)
            tool, findings = analyze_tool_text(text, str(path), ctx, macros=macros)
            if tool is not None:
                tools.append((path, tool))
        elif kind == "macros":
            pass  # consumed via tool imports
        elif kind == "invalid":
            findings = [GYAN100.finding("XML is not well-formed", str(path))]
        # Any other root tag: not a Galaxy config — skip silently.
        if kind == "python":
            # The richer engine: def-scoped `# gyan: disable=` pragmas
            # with unused-suppression accounting (all AST families are
            # active in a lint run, so audit every pragma).
            suppressions = SuppressionSet.parse(text)
            report.findings.extend(
                suppressions.apply(findings, str(path), active_prefixes=None)
            )
        else:
            report.findings.extend(apply_suppressions(findings, text))
        report.files_checked += 1

    # Cross-file: container tools vs. their destinations.
    for path, tool in tools:
        config = _job_conf_for(path, job_confs)
        if config is None:
            continue
        cross = analyze_tool_against_job_conf(tool, str(path), config)
        report.findings.extend(apply_suppressions(cross, texts[path]))

    report.findings.sort(key=finding_sort_key)
    report.ratchet(options.baseline, options.write_baseline_path)
    return report


def _sibling_macros(
    tool_path: Path, texts: dict[Path, str], kinds: dict[Path, str]
) -> dict[str, str]:
    """Macros files importable by a wrapper: same-directory first."""
    macros: dict[str, str] = {}
    for path, kind in kinds.items():
        if kind == "macros" and path.parent == tool_path.parent:
            macros[path.name] = texts[path]
    if not macros:
        for path, kind in kinds.items():
            if kind == "macros":
                macros.setdefault(path.name, texts[path])
    # A wrapper may import a macros file living next to it that the lint
    # run did not include explicitly.
    for sibling in tool_path.parent.glob("*.xml"):
        if sibling not in texts and sibling.name not in macros:
            try:
                text = sibling.read_text()
            except OSError:
                continue
            if classify_xml(text) == "macros":
                macros[sibling.name] = text
    return macros


def _job_conf_for(tool_path: Path, job_confs: dict[Path, object]):
    """The job_conf a tool should be checked against, if unambiguous."""
    same_dir = [c for p, c in job_confs.items() if p.parent == tool_path.parent]
    if len(same_dir) == 1:
        return same_dir[0]
    if not same_dir and len(job_confs) == 1:
        return next(iter(job_confs.values()))
    return None


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
