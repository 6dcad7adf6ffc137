"""Chaos runs: a workload driven under an injected fault plan.

One function, :func:`run_chaos`, is shared by the ``python -m repro
faults`` CLI and the chaos tests: build a deployment (resilient or
stock), arm an :class:`~repro.gpusim.faults.InjectionPlan`, push a fixed
alternating Racon/Bonito workload through it, and report per-job
survival.  The result serialises stably (:meth:`ChaosRunResult.to_json`)
so two runs of the same seeded plan can be compared byte for byte.

In a *resilient* deployment every layer of the degradation stack is
armed — NVML retries that degrade to the CPU arm, container-launch
retries, device quarantine, multi-hop resubmission — and the
expectation is that every job still reaches OK.
In a *stock* deployment the same plan loses jobs: a mid-run device death
fails the job with nothing to resubmit it, and an NVML flake crashes job
mapping outright.  The delta between the two runs is the resilience
layer's contribution, which is the point of the exercise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.node import ComputeNode
from repro.core.orchestrator import build_deployment
from repro.gpusim.faults import FaultKind, InjectionPlan, build_scenario
from repro.hotpath import hot_path
from repro.observability.export import render_document
from repro.observability.tracing import Tracer

#: The default alternating workload (tool ids cycled over ``jobs``).
DEFAULT_TOOLS = ("racon", "bonito")


@dataclass(frozen=True)
class ChaosJobResult:
    """Survival record for one submitted job."""

    tool: str
    state: str
    destination: str | None
    resubmit_chain: tuple[int, ...]
    error: str | None = None
    #: Typed overload reason when the job was *shed* (deliberately
    #: refused) rather than lost — distinct from failure in the ledger.
    shed_reason: str | None = None

    @property
    def survived(self) -> bool:
        return self.state == "ok"

    @property
    def shed(self) -> bool:
        return self.shed_reason is not None

    def to_dict(self) -> dict:
        data: dict = {"tool": self.tool, "state": self.state,
                      "destination": self.destination}
        if self.resubmit_chain:
            data["resubmit_chain"] = list(self.resubmit_chain)
        if self.error:
            data["error"] = self.error
        if self.shed_reason:
            data["shed_reason"] = self.shed_reason
        return data


@dataclass
class ChaosRunResult:
    """Everything one chaos run observed, stably serialisable."""

    plan: InjectionPlan
    resilient: bool
    jobs: list[ChaosJobResult] = field(default_factory=list)
    #: Exception message when the *app itself* crashed (stock mode only:
    #: an unhandled NVML error aborts mapping); jobs after the crash are
    #: never submitted and count as lost.
    crashed: str | None = None
    faults_fired: int = 0
    nvml_errors_served: int = 0
    container_failures_served: int = 0
    launch_requeues: int = 0
    quarantine_events: list[tuple[str, str]] = field(default_factory=list)
    degraded_queries: int = 0
    end_time: float = 0.0
    jobs_requested: int = 0
    #: Populated tracer / registry when the run was traced (``trace=True``);
    #: excluded from :meth:`to_dict` so serialisation is unchanged.
    tracer: object = field(default=None, repr=False, compare=False)
    registry: object = field(default=None, repr=False, compare=False)

    @property
    def survived(self) -> int:
        return sum(1 for j in self.jobs if j.survived)

    @property
    def shed(self) -> int:
        """Jobs the overload layer *deliberately* refused (typed reason)."""
        return sum(1 for j in self.jobs if j.shed)

    @property
    def lost(self) -> int:
        """Jobs that neither finished OK nor were deliberately shed.

        Shed is load management, loss is damage; the two are counted
        apart so a hardened run can shed under a storm and still report
        zero losses.
        """
        return self.jobs_requested - self.survived - self.shed

    @property
    def all_ok(self) -> bool:
        return self.crashed is None and self.lost == 0

    def to_dict(self) -> dict:
        return {
            "plan": self.plan.to_dict(),
            "resilient": self.resilient,
            "jobs_requested": self.jobs_requested,
            "survived": self.survived,
            "shed": self.shed,
            "lost": self.lost,
            "crashed": self.crashed,
            "jobs": [j.to_dict() for j in self.jobs],
            "faults_fired": self.faults_fired,
            "nvml_errors_served": self.nvml_errors_served,
            "container_failures_served": self.container_failures_served,
            "launch_requeues": self.launch_requeues,
            "quarantine_events": [list(q) for q in self.quarantine_events],
            "degraded_queries": self.degraded_queries,
            "end_time": round(self.end_time, 6),
        }

    def to_json(self) -> str:
        """Stable serialisation for byte-for-byte reproducibility checks."""
        return render_document(self.to_dict())


def resolve_plan(
    scenario: str | None = None,
    plan_file=None,
    seed: int = 0,
) -> InjectionPlan:
    """A plan from a named scenario or a JSON file (file wins)."""
    if plan_file is not None:
        return InjectionPlan.from_file(plan_file)
    return build_scenario(scenario or "k80-die-midrun", seed=seed)


@hot_path
def run_chaos(
    plan: InjectionPlan,
    jobs: int | None = None,
    resilient: bool | None = None,
    trace: bool = False,
    clock=None,
) -> ChaosRunResult:
    """Drive ``jobs`` tool runs through a deployment under ``plan``.

    Everything is deterministic: the deployment, the plan (seeded), and
    the workload order, so equal inputs produce identical results.

    A plan may embed the workload it was authored against
    (:class:`~repro.gpusim.faults.WorkloadSpec` — verifier
    counterexamples do): its fields supply the defaults here, and also
    pin the job_conf and resubmit hop cap of the deployment.  Explicit
    arguments always win over the embedded spec.  A plan without one
    that injects ``container_launch_fail`` events runs its tools through
    ``docker_dynamic``, so the daemon failures reach a container runner
    instead of staying pending; every other plan uses the default
    dynamic destination.

    With ``trace=True`` a :class:`~repro.observability.tracing.Tracer`
    is bound to the deployment's clock and threaded through every layer;
    the populated tracer and the deployment's metrics registry come back
    on :attr:`ChaosRunResult.tracer` / :attr:`~ChaosRunResult.registry`
    (both excluded from serialisation, so ``to_json`` is unchanged).

    ``clock`` injects a pre-built virtual clock into the testbed — the
    determinism checker passes its permuting shim here.
    """
    # Imported here: executors pulls in workloads.datasets, so a module-
    # level import would cycle through this package's __init__.
    from repro.tools.executors import register_paper_tools

    spec = plan.workload
    if jobs is None:
        jobs = spec.jobs if spec is not None else 8
    if resilient is None:
        resilient = spec.resilient if spec is not None else True
    tools = spec.tools if spec is not None else DEFAULT_TOOLS

    node = ComputeNode.paper_testbed(clock=clock)
    tracer = Tracer(node.clock) if trace else None
    deployment = build_deployment(
        node=node,
        resilient=resilient,
        job_conf_xml=spec.job_conf_xml if spec is not None else None,
        max_resubmit_hops=(
            spec.max_resubmit_hops if spec is not None else None
        ),
        tracer=tracer,
    )
    register_paper_tools(deployment.app)
    if spec is None and any(
        event.kind is FaultKind.CONTAINER_LAUNCH_FAIL for event in plan.events
    ):
        for tool in tools:
            deployment.route_tool_to(tool, "docker_dynamic")
    injector = deployment.inject(plan)

    result = ChaosRunResult(plan=plan, resilient=resilient,
                            jobs_requested=jobs)
    finished: list[tuple[str, object]] = []
    for i in range(jobs):
        tool = tools[i % len(tools)]
        try:
            job = deployment.run_tool(tool, {"workload": "unit"})
        except Exception as exc:  # stock mode: mapping itself can crash
            result.crashed = f"{type(exc).__name__}: {exc}"
            break
        finished.append((tool, job))
    # Job ids come from a process-global counter; renumber chains relative
    # to this run's first job so equal runs serialise byte-for-byte.
    base = min(deployment.app.jobs, default=1)
    for tool, job in finished:
        result.jobs.append(
            ChaosJobResult(
                tool=tool,
                state=job.state.value,
                destination=job.metrics.destination_id,
                resubmit_chain=tuple(
                    jid - base + 1 for jid in job.metrics.resubmit_chain
                ),
                error=(job.stderr or None)
                if job.state.value == "error" else None,
                shed_reason=job.metrics.shed_reason,
            )
        )

    result.faults_fired = len(injector.fired)
    plane = deployment.gpu_host.faults
    result.nvml_errors_served = plane.nvml_errors_served
    result.container_failures_served = plane.container_failures_served
    result.launch_requeues = sum(
        runner.requeues for runner in deployment.app.runners.values()
    )
    if deployment.health_tracker is not None:
        result.quarantine_events = [
            (e.device_id, e.kind)
            for e in deployment.health_tracker.events
            if e.kind in ("quarantine", "readmit")
        ]
    result.degraded_queries = deployment.mapper.degraded_queries
    result.end_time = deployment.clock.now
    result.tracer = tracer
    result.registry = deployment.app.metrics_registry
    return result
