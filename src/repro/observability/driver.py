"""One-call traced runs: workload or chaos replay -> byte-stable artifacts.

The ``python -m repro trace`` CLI and the trace-smoke CI step both need
the same thing: build a deployment with an enabled tracer, drive a
deterministic workload through it, and serialise the resulting spans and
metrics into on-disk artifacts that are byte-identical across runs.
:func:`trace_workload` (Poisson replay) and :func:`trace_chaos` (fault
plan replay) produce a :class:`TraceArtifacts`; callers print it, diff
it, or :meth:`~TraceArtifacts.write` it to a directory.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.observability.export import (
    TRACE_SCHEMA,
    render_chrome_trace,
    render_document,
    render_job_timeline,
    render_prometheus,
)
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import Tracer

#: Artifact filenames, fixed so CI can diff without globbing.
PERFETTO_FILENAME = "trace.perfetto.json"
PROMETHEUS_FILENAME = "metrics.prom"
TIMELINE_FILENAME = "timeline.txt"
SUMMARY_FILENAME = "summary.json"


@dataclass
class TraceArtifacts:
    """The four deterministic artifacts of one traced run."""

    #: Chrome/Perfetto trace-event JSON (load in https://ui.perfetto.dev).
    perfetto: str
    #: Prometheus text exposition of the deployment's metrics registry.
    prometheus: str
    #: Human-readable per-job phase timelines.
    timeline: str
    #: Machine-readable run summary (schema ``gyan.trace/v1``).
    summary: dict

    def summary_json(self) -> str:
        """Byte-stable serialisation of :attr:`summary`."""
        return render_document(self.summary)

    def write(self, directory: str | Path) -> list[Path]:
        """Write all four artifacts into ``directory`` (created if needed).

        Returns the written paths in a fixed order.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        pairs = (
            (PERFETTO_FILENAME, self.perfetto),
            (PROMETHEUS_FILENAME, self.prometheus),
            (TIMELINE_FILENAME, self.timeline),
            (SUMMARY_FILENAME, self.summary_json()),
        )
        written: list[Path] = []
        for name, content in pairs:
            path = directory / name
            path.write_text(content)
            written.append(path)
        return written


def _build_artifacts(
    tracer: Tracer,
    registry: MetricsRegistry,
    metadata: dict[str, Any],
    summary_extra: dict[str, Any],
) -> TraceArtifacts:
    perfetto = render_chrome_trace(tracer, metadata)
    summary: dict[str, Any] = {
        "schema": TRACE_SCHEMA,
        "metadata": dict(sorted(metadata.items())),
        "spans": len(tracer.spans),
        "events": len(tracer.events),
        "jobs_traced": len(tracer.job_ids()),
    }
    summary.update(summary_extra)
    return TraceArtifacts(
        perfetto=perfetto,
        prometheus=render_prometheus(registry),
        timeline=render_job_timeline(tracer),
        summary=summary,
    )


def trace_workload(
    jobs: int = 20,
    interarrival: float = 2.0,
    seed: int = 0,
    allocation: str = "pid",
    policy: str = "place",
    clock=None,
) -> TraceArtifacts:
    """Replay a seeded Poisson arrival trace with tracing enabled.

    Mirrors the ``python -m repro trace`` defaults; every timestamp comes
    from the deployment's virtual clock and every random draw from the
    seeded generator, so equal arguments yield byte-identical artifacts.

    ``clock`` injects a pre-built virtual clock into the testbed — the
    determinism checker passes its permuting shim here; everyone else
    leaves it None.
    """
    from repro.cluster.node import ComputeNode
    from repro.core.orchestrator import build_deployment
    from repro.tools.executors import register_paper_tools
    from repro.workloads.traces import TraceReplayer, generate_trace

    node = ComputeNode.paper_testbed(clock=clock)
    tracer = Tracer(node.clock)
    deployment = build_deployment(
        node=node, allocation_strategy=allocation, tracer=tracer
    )
    register_paper_tools(deployment.app)
    trace = generate_trace(
        n_jobs=jobs, mean_interarrival_s=interarrival, seed=seed
    )
    result = TraceReplayer(deployment, gpu_policy=policy).replay(trace)
    metadata = {
        "allocation": allocation,
        "interarrival": interarrival,
        "jobs": jobs,
        "mode": "workload",
        "policy": policy,
        "seed": seed,
    }
    summary_extra = {
        "replay": {
            "gpu_jobs": len(result.gpu_jobs),
            "scattered_jobs": result.scattered_jobs,
            "peak_sharing_per_gpu": dict(
                sorted(result.max_concurrent_per_gpu.items())
            ),
            "mean_completion_time_s": round(result.mean_completion_time(), 6),
            "mean_wait_time_s": round(result.mean_wait_time(), 6),
            "end_time_s": round(deployment.clock.now, 6),
        },
    }
    return _build_artifacts(
        tracer, deployment.app.metrics_registry, metadata, summary_extra
    )


def trace_chaos(
    plan,
    jobs: int | None = None,
    resilient: bool | None = None,
) -> TraceArtifacts:
    """Replay a fault-injection plan with tracing enabled.

    The chaos harness builds the deployment itself; ``trace=True`` hands
    back the populated tracer and registry, from which the same four
    artifacts are rendered.  The summary embeds the full chaos survival
    report, so one artifact set answers both "what happened to each job"
    and "when, phase by phase".
    """
    from repro.workloads.chaos import run_chaos

    result = run_chaos(plan, jobs=jobs, resilient=resilient, trace=True)
    metadata = {
        "mode": "chaos",
        "plan": plan.name,
        "resilient": result.resilient,
        "seed": plan.seed,
    }
    summary_extra = {"chaos": result.to_dict()}
    return _build_artifacts(
        result.tracer, result.registry, metadata, summary_extra
    )
