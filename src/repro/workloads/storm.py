"""Burst-storm workloads: overload the job path, measure what survives.

The chaos runs (:mod:`repro.workloads.chaos`) stress the *fault* plane;
this module stresses the *load* plane: a seeded arrival process whose
rate spikes by an order of magnitude in burst windows, replayed with
launch/finish overlap so destination queues actually fill.  Against a
stock deployment the storm grows queues without bound and loses jobs
when clustered infrastructure faults land mid-burst; against a hardened
deployment (``build_deployment(overload=True)``) the bounded
destinations bounce REJECTED_BUSY into degrade arms, expired jobs shed
with typed reasons, brownout strips GPU mapping from low-benefit tools,
and every *admitted* job still completes.

Everything runs on the virtual clock from seeded generators, so
:meth:`StormResult.to_json` is byte-for-byte reproducible — the CI
overload-smoke job double-runs it and diffs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.core.orchestrator import build_deployment
from repro.galaxy.job import JobState
from repro.gpusim.faults import build_scenario
from repro.hotpath import hot_path
from repro.observability.export import render_document
from repro.resilience.shedding import ShedReason
from repro.workloads.traces import (
    ArrivalTrace,
    DEFAULT_DURATIONS,
    DEFAULT_TOOL_MIX,
    InFlightSet,
    TraceEntry,
)

#: Serialisation schema tag for :meth:`StormResult.to_json`.
STORM_SCHEMA = "gyan.storm/v1"


def generate_storm_trace(
    n_jobs: int = 48,
    seed: int = 0,
    base_interarrival_s: float = 4.0,
    burst_factor: float = 10.0,
    calm_jobs: int = 6,
    burst_jobs: int = 10,
    tool_mix: dict[str, float] | None = None,
    durations: dict[str, float] | None = None,
) -> ArrivalTrace:
    """A seeded arrival trace alternating calm stretches and bursts.

    Jobs arrive in repeating waves of ``calm_jobs`` submissions at the
    base interarrival time followed by ``burst_jobs`` submissions
    ``burst_factor`` times faster — the thundering-herd shape (pipeline
    kick-offs, class assignments due at midnight) that motivates bounded
    queues.  Pure :mod:`random` seeded by ``seed``; no wall clock.
    """
    if n_jobs <= 0:
        raise ValueError("n_jobs must be positive")
    if base_interarrival_s <= 0:
        raise ValueError("base_interarrival_s must be positive")
    if not 1.0 <= burst_factor < math.inf:
        raise ValueError(
            "burst_factor must be finite and >= 1 (a burst is faster), "
            f"got {burst_factor}"
        )
    if calm_jobs < 1 or burst_jobs < 1:
        raise ValueError("calm_jobs and burst_jobs must be positive")
    tool_mix = tool_mix or DEFAULT_TOOL_MIX
    durations = durations or DEFAULT_DURATIONS
    tools = sorted(tool_mix)
    total_weight = sum(tool_mix[t] for t in tools)
    rng = random.Random(seed)
    wave = calm_jobs + burst_jobs
    now = 0.0
    entries: list[TraceEntry] = []
    for i in range(n_jobs):
        in_burst = (i % wave) >= calm_jobs
        mean = base_interarrival_s / (burst_factor if in_burst else 1.0)
        now += rng.expovariate(1.0 / mean)
        pick = rng.random() * total_weight
        tool_id = tools[-1]
        for candidate in tools:
            pick -= tool_mix[candidate]
            if pick <= 0:
                tool_id = candidate
                break
        duration = durations[tool_id] * rng.uniform(0.9, 1.1)
        entries.append(
            TraceEntry(
                arrival_time=round(now, 6),
                tool_id=tool_id,
                duration=round(duration, 6),
            )
        )
    return ArrivalTrace(entries=entries, seed=seed)


@dataclass
class StormResult:
    """Everything one storm run observed, stably serialisable.

    The central ledger identity, hardened or stock: ``jobs_requested =
    admitted + shed_total + never_submitted``; among the admitted,
    ``completed_ok + lost_admitted``.  A hardened run may shed freely
    (that is load management) but must keep ``lost_admitted`` at zero —
    once the system said yes, it finishes the job.
    """

    hardened: bool
    seed: int
    scenario: str | None
    jobs_requested: int = 0
    #: Jobs whose launch was accepted (process started).
    admitted: int = 0
    completed_ok: int = 0
    #: Admitted jobs that ended in ERROR (or never reached a terminal
    #: state) — the losses the hardened mode must hold at zero.
    lost_admitted: int = 0
    #: Typed shed counts, by :class:`ShedReason` value.
    shed: dict[str, int] = field(default_factory=dict)
    #: Jobs that never reached a runner because the app crashed first
    #: (stock mode): the job whose mapping crashed and every later one.
    never_submitted: int = 0
    crashed: str | None = None
    #: Peak simultaneous inflight per destination, in sorted id order.
    peak_inflight: dict[str, int] = field(default_factory=dict)
    #: Degrade redirects (``gyan_overload_redirects_total``).
    redirects: int = 0
    brownout_peak_level: int = 0
    #: Times the NVML probe's circuit breaker opened.
    breaker_trips: int = 0
    backpressure_waits: int = 0
    end_time: float = 0.0

    @property
    def shed_total(self) -> int:
        return sum(self.shed.values())

    def to_dict(self) -> dict:
        return {
            "schema": STORM_SCHEMA,
            "hardened": self.hardened,
            "seed": self.seed,
            "scenario": self.scenario,
            "jobs_requested": self.jobs_requested,
            "admitted": self.admitted,
            "completed_ok": self.completed_ok,
            "lost_admitted": self.lost_admitted,
            "shed": dict(sorted(self.shed.items())),
            "shed_total": self.shed_total,
            "never_submitted": self.never_submitted,
            "crashed": self.crashed,
            "peak_inflight": dict(sorted(self.peak_inflight.items())),
            "redirects": self.redirects,
            "brownout_peak_level": self.brownout_peak_level,
            "breaker_trips": self.breaker_trips,
            "backpressure_waits": self.backpressure_waits,
            "end_time": round(self.end_time, 6),
        }

    def to_json(self) -> str:
        """Stable serialisation for byte-for-byte reproducibility checks."""
        return render_document(self.to_dict())


@hot_path
def run_storm(
    jobs: int = 48,
    seed: int = 0,
    hardened: bool = True,
    scenario: str | None = "burst-storm",
    burst_factor: float = 10.0,
) -> StormResult:
    """Drive a burst storm through a deployment with launch overlap.

    Unlike :func:`~repro.workloads.chaos.run_chaos` (strictly
    synchronous, queue depth never exceeds one), this driver launches
    jobs at their arrival instants and finishes them when their virtual
    duration elapses (an :class:`~repro.workloads.traces.InFlightSet`),
    so burst arrivals genuinely stack up inside destination queues —
    the condition the overload layer exists for.

    Hardened mode builds ``build_deployment(overload=True)`` and reacts
    to REJECTED_BUSY by walking the app's degrade arms
    (:meth:`~repro.galaxy.app.GalaxyApp.place_with_degrade`), then
    holding the job under *backpressure* (draining running work) until
    either a slot opens or the job's deadline expires and it is shed.
    Stock mode has no admission control: queues grow unboundedly and
    clustered faults crash mapping or lose launches outright.
    """
    from repro.tools.executors import register_paper_tools

    deployment = build_deployment(overload=hardened)
    app = deployment.app
    register_paper_tools(app)
    if scenario is not None:
        deployment.inject(build_scenario(scenario, seed=seed))
    trace = generate_storm_trace(jobs, seed=seed, burst_factor=burst_factor)

    result = StormResult(
        hardened=hardened,
        seed=seed,
        scenario=scenario,
        jobs_requested=jobs,
    )
    overload = app.overload
    virtual_clock = deployment.clock
    running = InFlightSet(app)
    stock_inflight: dict[str, int] = {}
    stock_peak: dict[str, int] = {}
    admitted_ids: set[int] = set()

    def release(finished: list) -> None:
        for launched in finished:
            dest_id = launched.job.metrics.destination_id
            if dest_id is not None and dest_id in stock_inflight:
                stock_inflight[dest_id] -= 1

    def launch_with_degrade(job, destination):
        """Launch along the degrade arms, then backpressure-wait."""
        while True:
            placed = app.place_with_degrade(
                job, destination, lambda runner, target: runner.launch(job, target)
            )
            if placed is not None:
                return placed
            # Every arm is full (only a controller bounces): drain the
            # earliest-ending jobs and retry from the preferred
            # destination, unless the deadline passed (or nothing is
            # draining) — then shed, typed.
            if overload.expired(job):
                overload.shed(job, ShedReason.DEADLINE_EXPIRED,
                              note="expired under backpressure")
                return None
            if not running:
                overload.shed(job, ShedReason.QUEUE_FULL,
                              note="all arms full, nothing draining")
                return None
            result.backpressure_waits += 1
            release(running.finish_until(running.earliest))

    with running:
        for index, entry in enumerate(trace.entries):
            release(running.finish_until(entry.arrival_time))
            if virtual_clock.now < entry.arrival_time:
                virtual_clock.advance_to(entry.arrival_time)
            job = app.submit(entry.tool_id, {"workload": "unit"})
            try:
                destination = app.map_or_shed(job)
            except Exception as exc:  # stock mode: mapping crashes raw
                result.crashed = f"{type(exc).__name__}: {exc}"
                result.never_submitted = jobs - index
                break
            if destination is None:
                continue
            try:
                placed = launch_with_degrade(job, destination)
            except Exception as exc:
                if overload is not None:
                    raise
                # Stock mode: an NVML flake at launch (the stock mapper
                # does not retry) is a lost job.
                if not job.is_terminal:
                    if job.state is JobState.NEW:
                        job.transition(JobState.QUEUED, virtual_clock.now)
                    job.fail(f"launch failed: {exc}", virtual_clock.now)
                continue
            if placed is None:
                continue
            destination, launched = placed
            if overload is None:
                dest_id = destination.destination_id
                stock_inflight[dest_id] = stock_inflight.get(dest_id, 0) + 1
                stock_peak[dest_id] = max(
                    stock_peak.get(dest_id, 0), stock_inflight[dest_id]
                )
            admitted_ids.add(job.job_id)
            running.hold(virtual_clock.now + entry.duration, launched)
        running.finish_until(math.inf)

    result.admitted = len(admitted_ids)
    result.completed_ok = sum(
        1
        for jid in admitted_ids
        if app.jobs[jid].state.value == "ok"
    )
    result.lost_admitted = result.admitted - result.completed_ok
    if overload is not None:
        result.shed = overload.shed_by_reason()
        result.peak_inflight = dict(sorted(overload.peak_inflight.items()))
        result.redirects = int(
            app.metrics_registry.value("gyan_overload_redirects_total")
        )
    else:
        result.peak_inflight = dict(sorted(stock_peak.items()))
    if deployment.brownout is not None:
        result.brownout_peak_level = deployment.brownout.peak_level
    if deployment.nvml_breaker is not None:
        result.breaker_trips = sum(
            1
            for _, _, to in deployment.nvml_breaker.transitions
            if to.value == "open"
        )
    result.end_time = virtual_clock.now
    return result
