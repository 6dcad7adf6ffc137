"""gyan-verify orchestration: load deployments, run passes, render.

``verify_paths`` is the engine behind ``python -m repro verify``.  It
builds one :class:`~repro.analysis.verifier.ir.DeploymentIR` per
job_conf reachable from the given paths, then runs the three pass
families over each deployment:

* dataflow (VER2xx), capacity (VER3xx), overload (VER501-503) and
  autoscale (VER504-505) — pure static passes;
* the small-scope model checker (VER4xx) — bounded exhaustive replay,
  skippable with ``model_check=False`` for a fast static-only run.

Output mirrors gyan-lint: the same finding model, the same sort order,
the same text/JSON renderings and exit-code contract, so CI treats both
tools identically.  VER4xx findings additionally carry replayable
counterexample plans, written as JSON files when ``emit_plans`` names a
directory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.analysis.config_rules import ConfigContext
from repro.analysis.findings import FindingsReport, finding_sort_key
from repro.analysis.verifier.autoscale import analyze_autoscale
from repro.analysis.verifier.capacity import analyze_capacity
from repro.analysis.verifier.dataflow import analyze_dataflow
from repro.analysis.verifier.ir import load_deployments
from repro.analysis.verifier.model_check import (
    Counterexample,
    Scope,
    analyze_model_check,
)
from repro.analysis.verifier.overload import analyze_overload
from repro.observability.export import render_document


@dataclass
class VerifyOptions:
    """Knobs the CLI exposes."""

    device_count: int = 2
    scope: Scope = field(default_factory=Scope)
    model_check: bool = True
    emit_plans: str | None = None  # directory for counterexample plans


@dataclass
class VerifyReport(FindingsReport):
    """Everything one verify run produced."""

    counterexamples: list[Counterexample] = field(default_factory=list)
    deployments_checked: int = 0
    replays: int = 0
    emitted_plans: list[str] = field(default_factory=list)

    def summary_lines(self) -> list[str]:
        summary = (
            f"{self.deployments_checked} deployment(s) checked, "
            f"{len(self.findings)} finding(s)" + self.severity_counts()
        )
        if self.replays:
            summary += f"; {self.replays} model-check replay(s)"
        return [summary] + [
            f"counterexample plan written: {path}"
            for path in self.emitted_plans
        ]

    def payload(self) -> dict[str, Any]:
        return {
            "deployments_checked": self.deployments_checked,
            "findings": [f.as_dict() for f in self.findings],
            "counterexamples": [
                {
                    "rule_id": ce.rule_id,
                    "lost_tool": ce.lost_tool,
                    "chain_destinations": list(ce.chain_destinations),
                    "plan": ce.plan.to_dict(),
                }
                for ce in self.counterexamples
            ],
            "emitted_plans": list(self.emitted_plans),
        }


def verify_paths(
    paths: list[str], options: VerifyOptions | None = None
) -> VerifyReport:
    """Verify every deployment reachable from ``paths``."""
    options = options or VerifyOptions()
    ctx = ConfigContext(device_count=options.device_count)
    report = VerifyReport()

    deployments, load_findings, errors = load_deployments(paths)
    report.errors.extend(errors)
    report.findings.extend(load_findings)
    if not deployments and not load_findings and not errors:
        report.errors.append(
            "no job_conf found under the given paths; nothing to verify"
        )

    for ir in deployments:
        report.deployments_checked += 1
        report.findings.extend(analyze_dataflow(ir, ctx))
        report.findings.extend(analyze_capacity(ir, ctx))
        report.findings.extend(analyze_overload(ir, ctx))
        report.findings.extend(analyze_autoscale(ir, ctx))
        if options.model_check:
            findings, counterexamples, result = analyze_model_check(
                ir, options.scope
            )
            report.findings.extend(findings)
            report.counterexamples.extend(counterexamples)
            report.replays += result.replays

    if options.emit_plans is not None and report.counterexamples:
        out_dir = Path(options.emit_plans)
        out_dir.mkdir(parents=True, exist_ok=True)
        for ce in report.counterexamples:
            path = out_dir / f"{ce.plan.name}.json"
            path.write_text(render_document(ce.plan.to_dict()))
            report.emitted_plans.append(str(path))
        report.emitted_plans.sort()

    report.findings.sort(key=finding_sort_key)
    report.counterexamples.sort(key=lambda ce: (ce.rule_id, ce.plan.name))
    return report
