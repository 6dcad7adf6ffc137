"""The finding model and report spine shared by every analyzer family.

A *finding* is one diagnosed problem: which rule fired, how severe it
is, where it was found, and what to do about it.  Severities are totally
ordered so a ``--fail-on`` threshold is a single comparison.

:class:`FindingsReport` is what ``lint``, ``verify``, ``race`` and
``perf`` each return: the findings, the usage errors, one exit-code
rule, one ``--baseline`` step and one text/JSON rendering.  A tool's
report subclass adds only its own counters, its summary line and its
JSON ``payload``.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Any, ClassVar

from repro.analysis.baseline import apply_baseline, load_baseline, write_baseline

#: Exit codes (modeled on ruff/flake8): clean / findings / usage error.
EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


class Severity(enum.IntEnum):
    """Severity of a finding, ordered for threshold comparisons."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:
        return self.name.lower()

    @classmethod
    def from_name(cls, name: str) -> "Severity":
        """Parse a severity from its lowercase CLI spelling."""
        try:
            return cls[name.upper()]
        except KeyError:
            raise ValueError(
                f"unknown severity {name!r}; expected one of "
                f"{[str(s) for s in cls]}"
            ) from None


@dataclass(frozen=True)
class Finding:
    """One diagnosed problem.

    Attributes
    ----------
    rule_id:
        Stable identifier (``GYAN1xx`` config, ``SRC2xx`` source,
        ``SIM3xx`` sanitizer) — what suppression comments name.
    severity:
        How bad it is; the linter's exit code derives from the worst
        finding relative to ``--fail-on``.
    message:
        Human-readable one-liner describing the specific instance.
    path:
        File the finding is anchored to (may be ``None`` for findings
        synthesised outside a file, e.g. cross-file checks).
    line:
        1-indexed line for source findings; XML findings usually have
        none (ElementTree drops positions).
    suggestion:
        Optional remediation hint.
    """

    rule_id: str
    severity: Severity
    message: str
    path: str | None = None
    line: int | None = None
    suggestion: str | None = None

    def as_dict(self) -> dict:
        """JSON-ready representation (``--format json``)."""
        return {
            "rule_id": self.rule_id,
            "severity": str(self.severity),
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "suggestion": self.suggestion,
        }

    def format_text(self) -> str:
        """The one-line text rendering (``--format text``)."""
        location = self.path or "<project>"
        if self.line is not None:
            location = f"{location}:{self.line}"
        text = f"{location}: {self.severity}: {self.rule_id}: {self.message}"
        if self.suggestion:
            text += f" (hint: {self.suggestion})"
        return text


def worst_severity(findings: list[Finding]) -> Severity | None:
    """The highest severity present, or ``None`` for a clean run."""
    if not findings:
        return None
    return max(f.severity for f in findings)


def finding_sort_key(f: Finding) -> tuple:
    """Total order for findings: (path, line, rule-id), then message and
    severity as tie-breakers so equal-location findings are byte-stable
    across runs and Python versions."""
    return (f.path or "", f.line or 0, f.rule_id, f.message, int(f.severity))


@dataclass
class FindingsReport:
    """What one analyzer run produced; the base of every tool's report."""

    findings: list[Finding] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)  # usage errors (bad paths)
    baselined: int = 0  # findings subtracted by --baseline

    #: ``render_json`` emits sorted keys unless a subclass turns it off.
    JSON_SORT_KEYS: ClassVar[bool] = True

    def exit_code(self, fail_on: Severity) -> int:
        if self.errors:
            return EXIT_USAGE
        worst = worst_severity(self.findings)
        if worst is not None and worst >= fail_on:
            return EXIT_FINDINGS
        return EXIT_CLEAN

    def ratchet(self, baseline: str | None, write_path: str | None) -> None:
        """The ``--baseline`` / ``--write-baseline`` step, run on the
        sorted findings: subtract the captured debt, then capture what
        is left.  An unloadable baseline is a usage error and leaves
        the findings as they are."""
        if baseline is not None:
            try:
                budgets = load_baseline(baseline)
            except (OSError, ValueError) as exc:
                self.errors.append(f"cannot load baseline {baseline}: {exc}")
                return
            self.findings, self.baselined = apply_baseline(self.findings, budgets)
        if write_path is not None:
            write_baseline(self.findings, write_path)

    def severity_counts(self) -> str:
        """`` (2 error, 1 warning)`` for the summary line; empty when clean."""
        if not self.findings:
            return ""
        counts: dict[str, int] = {}
        for f in self.findings:
            counts[str(f.severity)] = counts.get(str(f.severity), 0) + 1
        return " (" + ", ".join(
            f"{n} {sev}" for sev, n in sorted(counts.items())
        ) + ")"

    def summary_lines(self) -> list[str]:
        """The lines ``render_text`` prints after the findings."""
        raise NotImplementedError

    def payload(self) -> dict[str, Any]:
        """The ``--format json`` document."""
        raise NotImplementedError

    def render_text(self) -> str:
        return "\n".join(
            [f.format_text() for f in self.findings] + self.summary_lines()
        )

    def render_json(self) -> str:
        return json.dumps(
            self.payload(), indent=2, sort_keys=self.JSON_SORT_KEYS
        )
