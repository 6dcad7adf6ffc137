"""Named sim-core scenarios for ``python -m repro bench``.

Each scenario exercises one hot path the fast-path work optimised:

``monitor-long-job``
    The §V-C usage monitor over a 24-simulated-hour, 2-device job —
    start, advance, stop, statistics report.  This is the per-job cost
    every long-running Galaxy tool pays; the streaming span sampler
    turned it from O(samples) timer callbacks into O(state changes)
    bulk fills.
``monitor-csv-export``
    Rendering the same 24 h session to the monitor's CSV format
    (172 800 rows on 2 devices) — the dump-to-disk path.
``burst-dispatch``
    200 GPU jobs mapped at one clock instant.  With snapshot caching
    the burst costs one ``nvidia-smi`` probe instead of 200.
``burst-dispatch-traced``
    The same burst with an enabled tracer recording a ``map.env`` span
    per decision — compared against ``burst-dispatch`` this measures
    the tracing overhead a traced deployment pays (the untraced path
    stays on the zero-cost :data:`~repro.observability.tracing.
    NULL_TRACER`).
``chaos-run``
    The ``k80-die-midrun`` chaos scenario end to end (deployment build,
    fault arming, jobs, survival accounting) — the resilience stack's
    integration cost.
``race-overhead``
    The ``chaos-run`` workload replayed under gyan-race's
    :class:`~repro.analysis.race.clock_shim.PermutingClock` with an
    installed :class:`~repro.gpusim.footprint.FootprintRecorder` —
    compared against ``chaos-run`` this measures the instrumentation
    cost a race-checked run pays (the unchecked path keeps the
    ``_RECORDER is None`` fast guard).
``overload-storm``
    The hardened ``burst-storm`` overload drill end to end (bounded
    queues, degrade redirects, brownout, breakers) — the admission and
    shedding overhead the resilience layer adds to every launch.
``timeline-queries``
    Interleaved out-of-order :class:`~repro.gpusim.clock.Timeline`
    records followed by ``between``/``labelled`` range queries — the
    O(log n) incremental-sort path.

Sizes shrink under ``--quick`` (the CI smoke configuration) but the
schema and scenario set stay identical.
"""

from __future__ import annotations

import random

from repro.benchmarking.harness import BenchScenario

SUITE_NAME = "sim_core"

#: One simulated day — the "long job" of the acceptance criteria.
LONG_JOB_SECONDS = 24 * 3600
QUICK_LONG_JOB_SECONDS = 2 * 3600

BURST_JOBS = 200
QUICK_BURST_JOBS = 50

STORM_JOBS = 48
QUICK_STORM_JOBS = 16

TIMELINE_RECORDS = 20_000
QUICK_TIMELINE_RECORDS = 4_000
TIMELINE_QUERIES = 1_000
QUICK_TIMELINE_QUERIES = 200


_GPU_TOOL_XML = (
    '<tool id="bench_gpu"><requirements>'
    '<requirement type="compute">gpu</requirement>'
    "</requirements><command>racon_gpu</command></tool>"
)


def _monitored_session(horizon_seconds: int):
    """Build a fresh host + monitor and a started 2-device session.

    Hourly utilisation flips are scheduled so the monitor's span sampler
    sees a realistic number of state changes, not one empty span.
    """
    from repro.core.monitor import GPUUsageMonitor
    from repro.galaxy.job import GalaxyJob
    from repro.galaxy.tool_xml import parse_tool_xml
    from repro.gpusim.host import make_k80_host

    host = make_k80_host(boards=1)
    monitor = GPUUsageMonitor(host)
    job = GalaxyJob(tool=parse_tool_xml(_GPU_TOOL_XML))

    def flip(now: float) -> None:
        phase = int(now) // 3600
        host.devices[0].sm_utilization = float((phase * 17) % 101)
        host.devices[1].sm_utilization = float((phase * 31) % 101)

    for hour in range(1, horizon_seconds // 3600):
        # The per-hour timers ARE the workload this scenario measures —
        # they force the monitor's span listener through many quiescent
        # intervals, which is exactly what the benchmark times.
        host.clock.call_at(hour * 3600.0, flip)  # gyan: disable=PERF604
    return host, monitor, job


def _long_job_scenario(horizon_seconds: int) -> BenchScenario:
    def setup():
        return _monitored_session(horizon_seconds)

    def run(context) -> float:
        host, monitor, job = context
        monitor.start(job)
        host.clock.advance(float(horizon_seconds))
        monitor.stop(job)
        monitor.statistics_report(job.job_id)
        return float(horizon_seconds)

    return BenchScenario(
        name="monitor-long-job",
        description="start/advance/stop/report a 2-device usage monitor "
                    "over a long simulated job",
        setup=setup,
        run=run,
        workload={"simulated_hours": horizon_seconds // 3600, "devices": 2},
    )


def _csv_scenario(horizon_seconds: int) -> BenchScenario:
    def setup():
        host, monitor, job = _monitored_session(horizon_seconds)
        monitor.start(job)
        host.clock.advance(float(horizon_seconds))
        monitor.stop(job)
        return monitor, job

    def run(context) -> float:
        monitor, job = context
        monitor.to_csv(job.job_id)
        return 0.0

    return BenchScenario(
        name="monitor-csv-export",
        description="render a finished long-job session to the per-sample "
                    "CSV format",
        setup=setup,
        run=run,
        workload={"simulated_hours": horizon_seconds // 3600, "devices": 2},
    )


def _burst_scenario(jobs: int, traced: bool = False) -> BenchScenario:
    def setup():
        from repro.core.mapper import GpuComputationMapper
        from repro.galaxy.job import GalaxyJob
        from repro.galaxy.tool_xml import parse_tool_xml
        from repro.gpusim.host import make_k80_host

        host = make_k80_host(boards=1)
        tracer = None
        if traced:
            from repro.observability.tracing import Tracer

            tracer = Tracer(host.clock)
        mapper = GpuComputationMapper(host, tracer=tracer)
        tool = parse_tool_xml(_GPU_TOOL_XML)
        return mapper, [GalaxyJob(tool=tool) for _ in range(jobs)]

    def run(context) -> float:
        mapper, burst = context
        for job in burst:
            mapper.prepare_environment(job)
        return 0.0

    name = "burst-dispatch-traced" if traced else "burst-dispatch"
    description = (
        "map a same-instant burst of GPU jobs through Pseudocode 2 "
        + ("with an enabled tracer recording every mapping decision "
           "(the tracing-overhead comparison point)"
           if traced else "(snapshot cache hot path)")
    )
    return BenchScenario(
        name=name,
        description=description,
        setup=setup,
        run=run,
        workload={"jobs": jobs, "traced": traced},
    )


def _chaos_scenario() -> BenchScenario:
    def setup():
        from repro.workloads.chaos import resolve_plan

        return resolve_plan(scenario="k80-die-midrun", seed=0)

    def run(plan) -> float:
        from repro.workloads.chaos import run_chaos

        run_chaos(plan)
        return 0.0

    return BenchScenario(
        name="chaos-run",
        description="k80-die-midrun chaos scenario end to end "
                    "(deployment, faults, jobs, survival accounting)",
        setup=setup,
        run=run,
        workload={"scenario": "k80-die-midrun", "seed": 0},
    )


def _race_overhead_scenario() -> BenchScenario:
    def setup():
        from repro.workloads.chaos import resolve_plan

        return resolve_plan(scenario="k80-die-midrun", seed=0)

    def run(plan) -> float:
        from repro.analysis.race.clock_shim import PermutingClock
        from repro.gpusim.footprint import FootprintRecorder
        from repro.workloads.chaos import run_chaos

        recorder = FootprintRecorder()
        clock = PermutingClock(recorder=recorder)
        with recorder.installed():
            run_chaos(plan, clock=clock)
        return 0.0

    return BenchScenario(
        name="race-overhead",
        description="chaos-run under the permuting clock with footprint "
                    "recording installed (race-instrumentation overhead "
                    "comparison point)",
        setup=setup,
        run=run,
        workload={"scenario": "k80-die-midrun", "seed": 0,
                  "instrumented": True},
    )


def _storm_scenario(jobs: int) -> BenchScenario:
    def setup():
        return jobs

    def run(n_jobs) -> float:
        from repro.workloads.storm import run_storm

        result = run_storm(jobs=n_jobs, seed=0, hardened=True)
        return result.end_time

    return BenchScenario(
        name="overload-storm",
        description="hardened burst-storm drill end to end (bounded "
                    "queues, degrade redirects, brownout, breakers)",
        setup=setup,
        run=run,
        workload={"jobs": jobs, "scenario": "burst-storm", "seed": 0},
    )


def _timeline_scenario(records: int, queries: int) -> BenchScenario:
    def setup():
        from repro.gpusim.clock import Timeline

        rng = random.Random(1234)
        times = [rng.uniform(0.0, 86_400.0) for _ in range(records)]
        labels = [f"event_{i % 7}" for i in range(records)]
        windows = [
            tuple(sorted((rng.uniform(0.0, 86_400.0),
                          rng.uniform(0.0, 86_400.0))))
            for _ in range(queries)
        ]
        return Timeline(), times, labels, windows

    def run(context) -> float:
        timeline, times, labels, windows = context
        for when, label in zip(times, labels):
            timeline.record(when, label, None)
        for start, end in windows:
            timeline.between(start, end)
            timeline.labelled("event_3")
        return 0.0

    return BenchScenario(
        name="timeline-queries",
        description="interleaved out-of-order timeline records plus "
                    "between()/labelled() range queries",
        setup=setup,
        run=run,
        workload={"records": records, "queries": queries},
    )


def sim_core_suite(quick: bool = False) -> list[BenchScenario]:
    """The scenario set behind ``BENCH_sim_core.json``."""
    horizon = QUICK_LONG_JOB_SECONDS if quick else LONG_JOB_SECONDS
    return [
        _long_job_scenario(horizon),
        _csv_scenario(horizon),
        _burst_scenario(QUICK_BURST_JOBS if quick else BURST_JOBS),
        _burst_scenario(
            QUICK_BURST_JOBS if quick else BURST_JOBS, traced=True
        ),
        _chaos_scenario(),
        _race_overhead_scenario(),
        _storm_scenario(QUICK_STORM_JOBS if quick else STORM_JOBS),
        _timeline_scenario(
            QUICK_TIMELINE_RECORDS if quick else TIMELINE_RECORDS,
            QUICK_TIMELINE_QUERIES if quick else TIMELINE_QUERIES,
        ),
    ]


def suite_scenarios(suite: str, quick: bool = False) -> list[BenchScenario]:
    """Resolve a suite name to its scenario list.

    ``sim_core`` is the simulation hot-path suite behind
    ``BENCH_sim_core.json``; ``fleet_core`` is the 1000-node fleet tier
    behind ``BENCH_fleet_core.json``.  The fleet module is imported
    lazily so ``python -m repro bench`` (sim_core default) does not pay
    for it.
    """
    if suite == "sim_core":
        return sim_core_suite(quick=quick)
    if suite == "fleet_core":
        from repro.benchmarking.fleet_scenarios import fleet_core_suite

        return fleet_core_suite(quick=quick)
    raise ValueError(f"unknown bench suite: {suite!r}")
