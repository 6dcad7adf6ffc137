"""gyan-perf: the profile-guided static performance analyzer.

``python -m repro perf`` builds a static call graph over the sources,
seeds a hot-path model from ``@hot_path`` annotations and the
``BENCH_sim_core.json`` scenario→entry-point profile, propagates
hotness transitively, and fires the PERF6xx rules — at **error**
severity on hot paths, **info** elsewhere.  See
``docs/performance-lint.md``.
"""

from repro.analysis.findings import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE
from repro.analysis.perf.callgraph import CallGraph, FunctionNode, build_call_graph
from repro.analysis.perf.driver import (
    PERF_SCHEMA,
    PerfFinding,
    PerfOptions,
    PerfReport,
    analyze_sources,
    run_perf,
)
from repro.analysis.perf.hotmodel import HotModel, HotPath, build_hot_model

__all__ = [
    "CallGraph",
    "FunctionNode",
    "build_call_graph",
    "EXIT_CLEAN",
    "EXIT_FINDINGS",
    "EXIT_USAGE",
    "PERF_SCHEMA",
    "PerfFinding",
    "PerfOptions",
    "PerfReport",
    "analyze_sources",
    "run_perf",
    "HotModel",
    "HotPath",
    "build_hot_model",
]
