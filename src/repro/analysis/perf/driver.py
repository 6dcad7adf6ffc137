"""gyan-perf orchestration: call graph → hot model → PERF6xx findings.

The run has four stages:

1. load every ``.py`` file reachable from the given paths
   (:func:`repro.analysis.sources.load_sources`, the analyzers' one
   front end);
2. build the static call graph over all of them at once (hotness must
   propagate across module boundaries);
3. seed the hot model from ``@hot_path`` annotations;
4. run the PERF6xx AST checks per file and attribute every hit to its
   enclosing function: hits in hot functions fire at **error** severity
   and carry the seed→function call chain; everywhere else they
   downgrade to **info**.

The JSON report (``gyan.perf/v1``) is byte-deterministic: sorted
findings, sorted keys, no timestamps.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any

from repro.analysis.findings import (
    Finding,
    FindingsReport,
    Severity,
    finding_sort_key,
)
from repro.analysis.perf.callgraph import CallGraph, build_call_graph
from repro.analysis.perf.hotmodel import HotModel, build_hot_model
from repro.analysis.perf.perf_rules import perf_hits
from repro.analysis.sources import load_sources, python_findings

PERF_SCHEMA = "gyan.perf/v1"


@dataclass(frozen=True)
class PerfFinding(Finding):
    """A lint finding enriched with call-graph attribution."""

    function: str | None = None  #: enclosing function's qname
    hot: bool = False
    chain: str | None = None  #: rendered seed→function path when hot

    def as_dict(self) -> dict:
        data = super().as_dict()
        data["function"] = self.function
        data["hot"] = self.hot
        data["chain"] = self.chain
        return data

    def format_text(self) -> str:
        text = super().format_text()
        if self.chain:
            text += f" [hot via {self.chain}]"
        return text


@dataclass
class PerfOptions:
    """Knobs the CLI exposes."""

    baseline: str | None = None
    write_baseline_path: str | None = None


@dataclass
class PerfReport(FindingsReport):
    """Everything one gyan-perf run produced."""

    files_checked: int = 0
    graph_functions: int = 0
    graph_edges: int = 0
    hot_functions: int = 0
    seeds: list[str] = field(default_factory=list)

    def summary_lines(self) -> list[str]:
        summary = (
            f"{self.files_checked} file(s), "
            f"{self.graph_functions} function(s), "
            f"{self.hot_functions} hot via {len(self.seeds)} seed(s); "
            f"{len(self.findings)} finding(s)"
        )
        if self.baselined:
            summary += f", {self.baselined} baselined"
        return [summary]

    def payload(self) -> dict[str, Any]:
        return {
            "schema": PERF_SCHEMA,
            "files_checked": self.files_checked,
            "graph": {
                "functions": self.graph_functions,
                "edges": self.graph_edges,
            },
            "hot": {"functions": self.hot_functions, "seeds": self.seeds},
            "baselined": self.baselined,
            "findings": [f.as_dict() for f in self.findings],
        }


def analyze_sources(
    sources: list[tuple[str, ast.Module | Exception]],
) -> tuple[list[Finding], CallGraph, HotModel]:
    """PERF6xx findings for ``(path, tree)`` pairs, plus the models.

    This is the engine ``repro perf`` and ``repro lint`` share (through
    :func:`repro.analysis.sources.python_findings`), so both judge the
    same hot set.  Findings come back *unsuppressed* and unsorted.
    """
    graph, _errors = build_call_graph(sources)
    model = build_hot_model(graph)

    findings: list[Finding] = []
    for path, _tree in sources:
        info = graph.module_for_path(path)
        if info is None:
            continue  # unparseable; the source family reports SRC syntax
        for hit in perf_hits(info.tree):
            node = graph.enclosing(path, hit.line)
            qname = node.qname if node is not None else None
            hot = qname is not None and model.is_hot(qname)
            findings.append(
                PerfFinding(
                    rule_id=hit.rule.rule_id,
                    severity=Severity.ERROR if hot else Severity.INFO,
                    message=hit.message,
                    path=path,
                    line=hit.line,
                    suggestion=hit.suggestion,
                    function=qname,
                    hot=hot,
                    chain=model.chain_for(qname) if hot and qname else None,
                )
            )
    return findings, graph, model


def run_perf(paths: list[str], options: PerfOptions | None = None) -> PerfReport:
    """Run gyan-perf over every ``.py`` file reachable from ``paths``."""
    options = options or PerfOptions()
    report = PerfReport()

    sources, report.errors = load_sources(paths, (".py",))
    # ``# gyan: disable=…`` pragmas are audited for the PERF family
    # only — this run evaluated nothing else.
    report.findings, graph, model = python_findings(sources, {"PERF"})
    assert graph is not None and model is not None  # PERF was evaluated
    report.files_checked = len(sources)
    report.graph_functions = len(graph.nodes)
    report.graph_edges = graph.edge_count()
    report.hot_functions = len(model.hot)
    report.seeds = model.seeds

    report.findings.sort(key=finding_sort_key)
    report.ratchet(options.baseline, options.write_baseline_path)
    return report
