"""VER4xx: small-scope exhaustive model checking of the failure machinery.

The verifier's last pass does not re-model anything: it *runs* the real
deployment — mapper, :class:`~repro.core.health.DeviceHealthTracker`,
container-launch retries, resubmit chains — under every bounded fault
schedule and
checks the outcomes against three liveness properties:

* VER401 **resubmit livelock** — a failed job's resubmit chain revisits
  a destination without making progress until the hop cap kills it;
* VER402 **no-fallback job loss** — a job errors on a destination with
  no resubmit arm and is lost outright;
* VER403 **hop-cap starvation** — a job exhausts ``max_resubmit_hops``
  while the final destination still has an untried recovery arm.

Scopes are small by design (the small-scope hypothesis: configuration
bugs show up in tiny instances): at most 2 devices, 3 jobs and 4 fault
events.  Schedules are explored breadth-first — fewest injected faults
first — so every counterexample is minimal.  Fault timing is learned
from the parent schedule's replay: a new event lands at the midpoint of
the target job's observed execution window, which is identical in the
child until the new fault fires.

Each violation is emitted as a replayable chaos plan whose embedded
:class:`~repro.gpusim.faults.WorkloadSpec` pins the exact deployment;
the plan is *confirmed* through :func:`repro.workloads.chaos.run_chaos`
before it is reported, so every finding reproduces via
``python -m repro faults --plan``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis import rules as R
from repro.analysis.findings import Finding
from repro.analysis.verifier.ir import DeploymentIR
from repro.core.orchestrator import build_deployment
from repro.galaxy.job import JobState
from repro.gpusim.faults import FaultEvent, FaultKind, InjectionPlan, WorkloadSpec

#: Hard scope ceilings (the ISSUE's bounded scopes).
MAX_DEVICES = 2
MAX_JOBS = 3
MAX_FAULTS = 4

#: The alternating workload the checker drives, mirroring run_chaos.
CHECK_TOOLS = ("racon", "bonito")

#: Container failures queued by one "outage" action: enough to exhaust
#: ``_run_container``'s retry budget (3 attempts) on every hop of a
#: maximal chain.
_OUTAGE_COUNT = 12


@dataclass(frozen=True)
class Scope:
    """Bounds of the exhaustive exploration."""

    devices: int = MAX_DEVICES
    jobs: int = MAX_JOBS
    faults: int = MAX_FAULTS
    #: Replay budget: the checker stops expanding once this many concrete
    #: replays have run (exploration is reported as truncated).
    max_replays: int = 160

    def __post_init__(self) -> None:
        if not 1 <= self.devices <= MAX_DEVICES:
            raise ValueError(f"scope devices must be 1..{MAX_DEVICES}")
        if not 1 <= self.jobs <= MAX_JOBS:
            raise ValueError(f"scope jobs must be 1..{MAX_JOBS}")
        if not 0 <= self.faults <= MAX_FAULTS:
            raise ValueError(f"scope faults must be 0..{MAX_FAULTS}")


@dataclass(frozen=True)
class Counterexample:
    """One confirmed property violation and its replayable plan."""

    rule_id: str
    description: str
    plan: InjectionPlan
    lost_tool: str
    chain_destinations: tuple[str, ...]


@dataclass
class CheckResult:
    """Everything one model-checking run observed."""

    counterexamples: list[Counterexample] = field(default_factory=list)
    replays: int = 0
    schedules_explored: int = 0
    truncated: bool = False


@dataclass
class _Replay:
    """One concrete execution of the deployment under a schedule."""

    windows: list[tuple[float, float]]
    jobs: list[object]
    app: object
    crashed: str | None = None
    state_key: tuple = ()


def _run_schedule(
    job_conf_xml: str, events: tuple[FaultEvent, ...], jobs: int
) -> _Replay:
    """Replay the workload under ``events``, recording job windows.

    This mirrors :func:`repro.workloads.chaos.run_chaos` exactly (same
    builder, same tools, same params), which is what makes the emitted
    counterexample plans reproduce byte-for-byte there.
    """
    from repro.gpusim.faults import FaultInjector
    from repro.tools.executors import register_paper_tools

    deployment = build_deployment(job_conf_xml=job_conf_xml, resilient=True)
    register_paper_tools(deployment.app)
    if events:
        FaultInjector(
            deployment.gpu_host,
            InjectionPlan(name="mc-probe", seed=0, events=events),
        ).arm()

    replay = _Replay(windows=[], jobs=[], app=deployment.app)
    for i in range(jobs):
        tool = CHECK_TOOLS[i % len(CHECK_TOOLS)]
        start = deployment.clock.now
        try:
            job = deployment.run_tool(tool, {"workload": "unit"})
        except Exception as exc:  # noqa: BLE001 - any crash ends the run
            replay.crashed = f"{type(exc).__name__}: {exc}"
            break
        replay.windows.append((start, deployment.clock.now))
        replay.jobs.append(job)

    now = deployment.clock.now
    health_key: tuple = ()
    if deployment.health_tracker is not None:
        health_key = deployment.health_tracker.state_key(now)
    alive = tuple(
        d.minor_number for d in deployment.gpu_host.devices if d.healthy
    )
    replay.state_key = (
        tuple(j.state.value for j in replay.jobs),
        tuple(j.metrics.destination_id for j in replay.jobs),
        alive,
        health_key,
        replay.crashed,
    )
    return replay


def _violations(
    ir: DeploymentIR, replay: _Replay, tools: tuple[str, ...]
) -> list[tuple[str, str, str, tuple[str, ...]]]:
    """(rule_id, description, tool, chain destinations) per lost job."""
    out = []
    if replay.crashed is not None:
        return out
    for index, job in enumerate(replay.jobs):
        if job.state is not JobState.ERROR:
            continue
        chain_ids = job.metrics.resubmit_chain or [job.job_id]
        dests = tuple(
            replay.app.jobs[jid].metrics.destination_id for jid in chain_ids
        )
        tool = tools[index % len(tools)]
        final = ir.config.destinations.get(dests[-1]) if dests[-1] else None
        if len(set(dests)) < len(dests):
            out.append((
                "VER401",
                f"job {index + 1} ({tool}) livelocks: its resubmit chain "
                f"{' -> '.join(str(d) for d in dests)} revisits a "
                "destination until the hop cap kills it",
                tool,
                dests,
            ))
        elif final is None or final.resubmit_destination is None:
            out.append((
                "VER402",
                f"job {index + 1} ({tool}) is lost outright: it errors on "
                f"{dests[-1]!r}, which has no resubmit arm "
                f"(chain {' -> '.join(str(d) for d in dests)})",
                tool,
                dests,
            ))
        else:
            out.append((
                "VER403",
                f"job {index + 1} ({tool}) is starved by the hop cap: its "
                f"chain {' -> '.join(str(d) for d in dests)} exhausts "
                "max_resubmit_hops while the untried recovery arm "
                f"{final.resubmit_destination!r} still exists",
                tool,
                dests,
            ))
    return out


@dataclass(frozen=True)
class _Action:
    """One schedulable fault action attached to a job's window."""

    job_index: int
    kind: str  # 'lost' | 'recover' | 'outage'
    device: int | None = None


def _action_event(
    action: _Action, window: tuple[float, float], offset: int
) -> FaultEvent:
    start, end = window
    time = round((start + end) / 2 + 0.001 * offset, 6)
    if action.kind == "lost":
        return FaultEvent(
            time=time, kind=FaultKind.DEVICE_LOST, device=action.device,
            xid=79, note=f"mc: device {action.device} dies during job "
            f"{action.job_index + 1}",
        )
    if action.kind == "recover":
        return FaultEvent(
            time=time, kind=FaultKind.DEVICE_RECOVER, device=action.device,
            note=f"mc: device {action.device} recovers during job "
            f"{action.job_index + 1}",
        )
    return FaultEvent(
        time=time, kind=FaultKind.CONTAINER_LAUNCH_FAIL, count=_OUTAGE_COUNT,
        note=f"mc: container daemon outage during job {action.job_index + 1}",
    )


def _candidate_actions(
    schedule: tuple[_Action, ...], scope: Scope
) -> list[_Action]:
    """Actions legal after ``schedule``, per job index (device-alive
    tracking happens over the schedule's action order)."""
    alive = {d: True for d in range(scope.devices)}
    outages = 0
    for action in schedule:
        if action.kind == "lost":
            alive[action.device] = False
        elif action.kind == "recover":
            alive[action.device] = True
        else:
            outages += 1
    from_job = schedule[-1].job_index if schedule else 0
    candidates: list[_Action] = []
    for job_index in range(from_job, scope.jobs):
        for device, is_alive in alive.items():
            if is_alive:
                candidates.append(_Action(job_index, "lost", device))
            else:
                candidates.append(_Action(job_index, "recover", device))
        if outages < 1:
            candidates.append(_Action(job_index, "outage"))
    return candidates


def model_check(ir: DeploymentIR, scope: Scope | None = None) -> CheckResult:
    """Explore bounded fault schedules against the real deployment.

    Breadth-first over schedules ordered by event count, deduplicated on
    the resilience machinery's abstract end state, stopping once every
    property family has a counterexample or the replay budget runs out.
    """
    from repro.workloads.chaos import run_chaos

    scope = scope or Scope()
    result = CheckResult()
    xml = ir.job_conf_text
    found: dict[str, Counterexample] = {}
    seen_states: set[tuple] = set()

    def consider(replay: _Replay, events: tuple[FaultEvent, ...]) -> None:
        for rule_id, description, tool, dests in _violations(
            ir, replay, CHECK_TOOLS
        ):
            if rule_id in found:
                continue
            plan = InjectionPlan(
                name=f"{rule_id.lower()}-{ir_name(ir)}",
                seed=0,
                events=events,
                workload=WorkloadSpec(
                    jobs=scope.jobs,
                    tools=CHECK_TOOLS,
                    resilient=True,
                    job_conf_xml=xml,
                    expect="job_loss",
                ),
            )
            confirmation = run_chaos(plan)
            result.replays += 1
            if confirmation.all_ok:
                continue  # not reproducible through the public replayer
            found[rule_id] = Counterexample(
                rule_id=rule_id,
                description=description,
                plan=plan,
                lost_tool=tool,
                chain_destinations=dests,
            )

    base = _run_schedule(xml, (), scope.jobs)
    result.replays += 1
    result.schedules_explored += 1
    seen_states.add(base.state_key)
    consider(base, ())

    frontier: list[tuple[tuple[_Action, ...], tuple[FaultEvent, ...], _Replay]]
    frontier = [((), (), base)]
    while frontier and len(found) < 3:
        schedule, events, parent = frontier.pop(0)
        if len(events) >= scope.faults:
            continue
        for action in _candidate_actions(schedule, scope):
            if result.replays >= scope.max_replays:
                result.truncated = True
                frontier.clear()
                break
            if action.job_index >= len(parent.windows):
                continue  # parent crashed / lost that job's window
            offset = sum(
                1 for a in schedule if a.job_index == action.job_index
            )
            event = _action_event(
                action, parent.windows[action.job_index], offset
            )
            child_events = tuple(
                sorted(events + (event,), key=lambda e: e.time)
            )
            child = _run_schedule(xml, child_events, scope.jobs)
            result.replays += 1
            result.schedules_explored += 1
            consider(child, child_events)
            if len(found) >= 3:
                break
            if child.state_key in seen_states:
                continue  # equivalent end state already expanded
            seen_states.add(child.state_key)
            frontier.append((schedule + (action,), child_events, child))

    result.counterexamples = [
        found[rule_id] for rule_id in sorted(found)
    ]
    return result


def ir_name(ir: DeploymentIR) -> str:
    """A filesystem-friendly tag for the deployment's job_conf."""
    from pathlib import PurePath

    stem = PurePath(ir.job_conf_path).stem
    return "".join(c if c.isalnum() or c in "-_" else "-" for c in stem)


def analyze_model_check(
    ir: DeploymentIR, scope: Scope | None = None
) -> tuple[list[Finding], list[Counterexample], CheckResult]:
    """The driver-facing wrapper: findings plus their replayable plans."""
    result = model_check(ir, scope)
    rules = {"VER401": R.VER401, "VER402": R.VER402, "VER403": R.VER403}
    findings = [
        rules[ce.rule_id].finding(
            ce.description
            + f" [counterexample: {len(ce.plan.events)} fault event(s); "
            "replay with `python -m repro faults --plan <emitted plan>`]",
            ir.job_conf_path,
            suggestion="give the final destination a CPU-pinned resubmit "
            "arm (see GYAN_RESILIENT_JOB_CONF_XML)",
        )
        for ce in result.counterexamples
    ]
    return findings, result.counterexamples, result
