"""Shared benchmark harness utilities.

Every benchmark regenerates one of the paper's tables or figures: it
runs the experiment on the simulated stack, prints the rows the paper
reports, writes them to ``benchmarks/results/<name>.txt``, attaches them
to pytest-benchmark's ``extra_info``, and asserts the paper's *shape*
(who wins, by roughly what factor, where the optima sit).
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


class ExperimentReport:
    """Collects printable rows for one experiment and persists them."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.lines: list[str] = []

    def add(self, line: str = "") -> None:
        """Append one output line."""
        self.lines.append(line)

    def table(self, header: list[str], rows: list[list[object]]) -> None:
        """Append an aligned text table."""
        widths = [
            max(len(str(header[i])), *(len(str(r[i])) for r in rows)) if rows else len(str(header[i]))
            for i in range(len(header))
        ]
        fmt = "  ".join(f"{{:>{w}}}" for w in widths)
        self.add(fmt.format(*header))
        self.add(fmt.format(*["-" * w for w in widths]))
        for row in rows:
            self.add(fmt.format(*[str(c) for c in row]))

    def finish(self) -> str:
        """Print, persist, and return the report text."""
        text = f"== {self.name} ==\n" + "\n".join(self.lines) + "\n"
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{self.name}.txt").write_text(text)
        print("\n" + text)
        return text


@pytest.fixture
def report(request) -> ExperimentReport:
    """A fresh report named after the running benchmark."""
    experiment = ExperimentReport(request.node.name.replace("test_", ""))
    yield experiment
    # finish() is called by the test so assertions can precede writing,
    # but make sure forgetful tests still persist something.
    if experiment.lines and not (RESULTS_DIR / f"{experiment.name}.txt").exists():
        experiment.finish()


@pytest.fixture
def fresh_deployment():
    """Factory for fully wired GYAN deployments with the paper tools."""
    from repro.core.orchestrator import build_deployment
    from repro.tools.executors import register_paper_tools

    def make(**kwargs):
        deployment = build_deployment(**kwargs)
        register_paper_tools(deployment.app)
        return deployment

    return make


@pytest.fixture
def cpu_deployment_factory():
    """Factory for CPU-only deployments (the paper's CPU baselines)."""
    from repro.cluster.node import ComputeNode
    from repro.core.orchestrator import build_deployment
    from repro.tools.executors import register_paper_tools

    def make():
        deployment = build_deployment(node=ComputeNode.cpu_only())
        register_paper_tools(deployment.app)
        return deployment

    return make
