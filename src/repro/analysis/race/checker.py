"""The dynamic happens-before checker: permute ties, byte-diff artifacts.

For each registered scenario the checker:

1. runs a **baseline** under a :class:`~repro.analysis.race.clock_shim.
   PermutingClock` with a :class:`~repro.gpusim.footprint.
   FootprintRecorder` installed, collecting the emitted artifacts, the
   observed timer ties, and each tie member's read/write footprint;
2. **prunes** ties whose members pairwise commute (no member's write
   set intersects another's read∪write set — the DPOR reduction:
   permuting commuting callbacks provably cannot change any artifact);
3. **replays** the surviving ties under up to K seeded permutations
   each, byte-diffing every artifact against the baseline;
4. reports a divergence as **DET501** with the *minimal* tie-flip
   schedule (a single adjacent transposition when one suffices),
   replayable via ``python -m repro race --schedule``; a conflicting
   tie that never diverged is reported as **DET502** (the order is
   load-bearing but unpinned — byte-stability is luck, not contract).

Scenarios are closed deterministic runs: a callable taking a virtual
clock and returning ``{artifact name: text}``.  The shipped set covers
the trace and chaos pipelines; ``tie-demo`` / ``tie-benign`` are
seeded-bad scenarios (excluded from the default run) that exercise the
DET501/DET502 paths end to end.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Callable

from repro.analysis import rules as R
from repro.analysis.findings import Finding
from repro.analysis.race.clock_shim import (
    PermutingClock,
    Schedule,
    TieRecord,
    member_label,
)
from repro.gpusim.clock import VirtualClock
from repro.gpusim.footprint import FootprintRecorder


@dataclass(frozen=True)
class Scenario:
    """One closed deterministic run the checker can permute."""

    name: str
    description: str
    run: Callable[[VirtualClock], dict[str, str]]
    #: Whether a bare ``repro race`` includes this scenario.
    default: bool = True


_SCENARIOS: dict[str, Scenario] = {}


def register_scenario(scenario: Scenario) -> Scenario:
    if scenario.name in _SCENARIOS:
        raise ValueError(f"duplicate scenario {scenario.name!r}")
    _SCENARIOS[scenario.name] = scenario
    return scenario


def scenario_names() -> list[str]:
    return sorted(_SCENARIOS)


def default_scenarios() -> list[str]:
    return sorted(name for name, s in _SCENARIOS.items() if s.default)


def get_scenario(name: str) -> Scenario:
    try:
        return _SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(_SCENARIOS))
        raise KeyError(f"unknown race scenario {name!r} (known: {known})") from None


# --------------------------------------------------------------------- #
# shipped scenarios
# --------------------------------------------------------------------- #
def _run_trace_workload(clock: VirtualClock) -> dict[str, str]:
    from repro.observability.driver import trace_workload

    artifacts = trace_workload(
        jobs=6, interarrival=1.0, seed=0, clock=clock
    )
    return {
        "trace.perfetto.json": artifacts.perfetto,
        "metrics.prom": artifacts.prometheus,
        "timeline.txt": artifacts.timeline,
        "summary.json": artifacts.summary_json(),
    }


def _run_chaos(clock: VirtualClock) -> dict[str, str]:
    from repro.gpusim.faults import build_scenario
    from repro.workloads.chaos import run_chaos

    plan = build_scenario("k80-die-midrun", seed=0)
    result = run_chaos(plan, clock=clock)
    return {"chaos.json": result.to_json()}


def _run_tie_demo(clock: VirtualClock) -> dict[str, str]:
    """A genuine DET501: two unkeyed same-instant callbacks whose order
    reaches the artifact bytes (each renames the shared slot)."""
    from repro.gpusim.clock import Timeline

    timeline = Timeline()
    state = {"owner": "nobody"}

    def claim_a(now: float) -> None:
        timeline.record(now, "claim", payload="a")
        state["owner"] = "a"

    def claim_b(now: float) -> None:
        timeline.record(now, "claim", payload="b")
        state["owner"] = "b"

    # Deliberately unkeyed: this scenario *is* the DET501 fixture.
    clock.call_at(1.0, claim_a)  # gyan-lint: disable=DET403
    clock.call_at(1.0, claim_b)  # gyan-lint: disable=DET403
    clock.advance_to(2.0)
    events = [
        {"time": e.time, "label": e.label, "payload": e.payload}
        for e in timeline
    ]
    return {
        "tie-demo.json": json.dumps(
            {"events": events, "owner": state["owner"]},
            indent=2, sort_keys=True,
        ) + "\n"
    }


def _run_tie_benign(clock: VirtualClock) -> dict[str, str]:
    """A DET502: the callbacks conflict on the timeline, but the artifact
    sorts their traces, so every permutation matches byte-for-byte."""
    from repro.gpusim.clock import Timeline

    timeline = Timeline()

    def visit_a(now: float) -> None:
        timeline.record(now, "visit-a")

    def visit_b(now: float) -> None:
        timeline.record(now, "visit-b")

    # Deliberately unkeyed: this scenario *is* the DET502 fixture.
    clock.call_at(1.0, visit_a)  # gyan-lint: disable=DET403
    clock.call_at(1.0, visit_b)  # gyan-lint: disable=DET403
    clock.advance_to(2.0)
    labels = sorted(e.label for e in timeline)
    return {
        "tie-benign.json": json.dumps({"labels": labels}, sort_keys=True) + "\n"
    }


register_scenario(Scenario(
    name="trace-workload",
    description="seeded Poisson workload through the traced deployment; "
                "artifacts: Perfetto JSON, Prometheus text, timeline, summary",
    run=_run_trace_workload,
))
register_scenario(Scenario(
    name="chaos",
    description="k80-die-midrun fault plan through the resilient "
                "deployment; artifact: chaos survival JSON",
    run=_run_chaos,
))
register_scenario(Scenario(
    name="tie-demo",
    description="seeded-bad: an unkeyed same-instant tie whose order "
                "changes the artifact (must report DET501)",
    run=_run_tie_demo,
    default=False,
))
register_scenario(Scenario(
    name="tie-benign",
    description="seeded-bad: an unkeyed conflicting tie whose artifact "
                "is order-insensitive (must report DET502)",
    run=_run_tie_benign,
    default=False,
))


# --------------------------------------------------------------------- #
# the check
# --------------------------------------------------------------------- #
@dataclass
class ScenarioResult:
    """Everything the checker observed for one scenario."""

    name: str
    ties: list[TieRecord] = field(default_factory=list)
    ties_pruned: int = 0
    replays: int = 0
    findings: list[Finding] = field(default_factory=list)
    #: Divergence-reproducing schedules, parallel to DET501 findings.
    schedules: list[dict] = field(default_factory=list)


def _replay(scenario: Scenario, schedule: Schedule | None) -> dict[str, str]:
    clock = PermutingClock(schedule=schedule)
    return scenario.run(clock)


def _diff_names(base: dict[str, str], other: dict[str, str]) -> list[str]:
    names = sorted(set(base) | set(other))
    return [n for n in names if base.get(n) != other.get(n)]


def _candidate_orders(
    size: int, permutations: int, rng: random.Random
) -> list[tuple[int, ...]]:
    """Up to ``permutations`` seeded non-identity orders of ``size``."""
    identity = tuple(range(size))
    if size == 2:
        return [(1, 0)]
    seen = {identity}
    orders: list[tuple[int, ...]] = []
    attempts = 0
    order = list(identity)  # shuffled in place; tuple() snapshots below
    while len(orders) < permutations and attempts < permutations * 10:
        attempts += 1
        rng.shuffle(order)
        candidate = tuple(order)
        if candidate not in seen:
            seen.add(candidate)
            orders.append(candidate)
    return orders


def _minimize(
    scenario: Scenario,
    tie: TieRecord,
    diverging: tuple[int, ...],
    baseline: dict[str, str],
    result: ScenarioResult,
) -> tuple[int, ...]:
    """Shrink a diverging order to a single adjacent transposition."""
    size = len(diverging)
    for position in range(size - 1):
        order = list(range(size))
        order[position], order[position + 1] = order[position + 1], order[position]
        candidate = tuple(order)
        if candidate == diverging:
            return diverging
        result.replays += 1
        replay = _replay(
            scenario, Schedule(scenario=scenario.name, flips={tie.index: candidate})
        )
        if _diff_names(baseline, replay):
            return candidate
    return diverging


def check_scenario(
    scenario: Scenario, permutations: int = 3, seed: int = 0
) -> ScenarioResult:
    """Run one scenario through the full permute-and-diff cycle."""
    result = ScenarioResult(name=scenario.name)
    recorder = FootprintRecorder()
    baseline_clock = PermutingClock(recorder=recorder)
    with recorder.installed():
        baseline = scenario.run(baseline_clock)
    result.ties = list(baseline_clock.ties)

    for tie in result.ties:
        size = len(tie.members)
        footprints = [
            recorder.footprint_for(member_label(tie.index, position))
            for position in range(size)
        ]
        conflicting = any(
            footprints[i].conflicts_with(footprints[j])
            for i in range(size)
            for j in range(i + 1, size)
        )
        if not conflicting:
            result.ties_pruned += 1
            continue

        rng = random.Random((seed << 16) ^ tie.index)
        diverged: tuple[int, ...] | None = None
        for order in _candidate_orders(size, permutations, rng):
            result.replays += 1
            replay = _replay(
                scenario,
                Schedule(scenario=scenario.name, flips={tie.index: order}),
            )
            if _diff_names(baseline, replay):
                diverged = order
                break

        if diverged is not None:
            minimal = _minimize(scenario, tie, diverged, baseline, result)
            schedule = Schedule(
                scenario=scenario.name, flips={tie.index: minimal}
            )
            final = _replay(scenario, schedule)
            changed = _diff_names(baseline, final) or ["<unknown>"]
            result.schedules.append(schedule.to_dict())
            result.findings.append(
                R.DET501.finding(
                    f"tie at t={tie.when:g} "
                    f"({' | '.join(tie.members)}): firing order "
                    f"{list(minimal)} changes artifact bytes "
                    f"({', '.join(changed)})",
                    path=f"scenario:{scenario.name}",
                    suggestion="replay with `python -m repro race "
                    f"--schedule` (schedule #{len(result.schedules) - 1} "
                    "in the JSON report); pin the order with "
                    "call_at(..., key=...)",
                )
            )
        else:
            result.findings.append(
                R.DET502.finding(
                    f"tie at t={tie.when:g} "
                    f"({' | '.join(tie.members)}): members conflict on "
                    "simulator state but no permutation tried changed the "
                    "artifacts — the order is load-bearing yet unpinned",
                    path=f"scenario:{scenario.name}",
                    suggestion="pin the order with call_at(..., key=...)",
                )
            )
    return result


def replay_schedule(schedule: Schedule) -> tuple[list[str], ScenarioResult]:
    """Replay a saved schedule; returns (diverged artifact names, result).

    Used by ``repro race --schedule FILE``: runs the scenario's baseline
    and the scheduled replay, and reports which artifacts changed.
    """
    scenario = get_scenario(schedule.scenario)
    result = ScenarioResult(name=scenario.name)
    baseline = _replay(scenario, None)
    result.replays = 2
    replay = _replay(scenario, schedule)
    changed = _diff_names(baseline, replay)
    if changed:
        flips = ", ".join(
            f"tie {index} -> {list(order)}"
            for index, order in sorted(schedule.flips.items())
        )
        result.schedules.append(schedule.to_dict())
        result.findings.append(
            R.DET501.finding(
                f"schedule reproduces divergence ({flips}): "
                f"{', '.join(changed)} changed bytes",
                path=f"scenario:{scenario.name}",
                suggestion="pin the order with call_at(..., key=...)",
            )
        )
    return changed, result
