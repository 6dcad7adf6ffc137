"""Finding baselines: adopt a tool on a codebase with existing debt.

A baseline is a byte-deterministic JSON capture of the findings a run
produced.  Re-running with ``--baseline <file>`` subtracts the captured
debt and fails only on *new* findings — the ratchet: the count per
``(path, rule_id, message)`` key may shrink or hold, never grow.

Keys deliberately omit line numbers so unrelated edits that shift code
up or down do not resurrect baselined findings; two findings on one
line with different messages still key separately.  When a file
accumulates *more* instances of an already-baselined finding, the
surplus surfaces (counts are per-key budgets, not blanket waivers).
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING

from repro.observability.export import render_document

if TYPE_CHECKING:  # findings.py imports this module for the --baseline step
    from repro.analysis.findings import Finding

#: Schema tag written into every baseline file.
BASELINE_SCHEMA = "gyan.baseline/v1"


def _key(finding: Finding) -> tuple[str, str, str]:
    return (finding.path or "", finding.rule_id, finding.message)


def render_baseline(findings: list[Finding]) -> str:
    """Byte-deterministic JSON capture of ``findings``."""
    counts = Counter(_key(f) for f in findings)
    entries = [
        {"path": path, "rule_id": rule_id, "message": message, "count": n}
        for (path, rule_id, message), n in sorted(counts.items())
    ]
    return render_document({"schema": BASELINE_SCHEMA, "entries": entries})


def write_baseline(findings: list[Finding], path: str | Path) -> None:
    Path(path).write_text(render_baseline(findings), encoding="utf-8")


def load_baseline(path: str | Path) -> Counter:
    """Per-key budgets from a baseline file.

    Raises ``ValueError`` on a file that is not a ``gyan.baseline/v1``
    document, so a typo'd path fails loudly instead of ratcheting
    against nothing.
    """
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or data.get("schema") != BASELINE_SCHEMA:
        raise ValueError(f"{path}: not a {BASELINE_SCHEMA} document")
    entries = data.get("entries", [])
    if not isinstance(entries, list):
        raise ValueError(f"{path}: 'entries' is not a list")
    budgets: Counter = Counter()
    for entry in entries:
        if not isinstance(entry, dict):
            raise ValueError(f"{path}: entry {entry!r} is not an object")
        count = entry.get("count", 0)
        if not isinstance(count, int):
            raise ValueError(f"{path}: count {count!r} is not an integer")
        key = (
            str(entry.get("path", "")),
            str(entry.get("rule_id", "")),
            str(entry.get("message", "")),
        )
        budgets[key] += count
    return budgets


def apply_baseline(
    findings: list[Finding], budgets: Counter
) -> tuple[list[Finding], int]:
    """(new findings, number baselined-away).

    Findings are consumed against budgets in input order, so with N
    instances of one key and a budget of M < N, the last N−M survive —
    deterministic because findings arrive pre-sorted.
    """
    remaining = Counter(budgets)
    kept: list[Finding] = []
    matched = 0
    for finding in findings:
        key = _key(finding)
        if remaining[key] > 0:
            remaining[key] -= 1
            matched += 1
        else:
            kept.append(finding)
    return kept, matched
