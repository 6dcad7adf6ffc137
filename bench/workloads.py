"""The six workloads: their inputs, one timed repeat each, and the checks.

Every size, storm window and failure time below is a constant of the
benchmark, copied rather than imported from ``repro.benchmarking``, so a
parent commit and a change always see identical inputs.  The seed is an
argument; the program only ever receives the inputs generated from it.

All six are closed loops in one process and one thread: the next
operation starts when the previous one returned.
"""

from __future__ import annotations

import contextlib
import hashlib
import heapq
import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

OUT = Path(__file__).resolve().parent / "out"


@dataclass
class Repeat:
    """What one timed repeat of a workload did."""

    wall_s: float
    ops: int
    failed: int
    #: SHA-256 of the simulated output; equal seeds give equal digests.
    digest: str
    #: Simulated seconds the repeat covered.
    sim_s: float
    #: Host seconds of each operation, where the benchmark can time one.
    op_s: list[float] = field(default_factory=list)
    #: The repeat cut into stretches: stretch ``j`` does the same work in
    #: every repeat, so the best time of each can be kept.
    stretch_s: list[float] = field(default_factory=list)
    #: Counters read from the program's results; they repeat exactly.
    counts: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def _sha(*parts: bytes) -> str:
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(part)
    return hasher.hexdigest()


def _chunk_sums(values, size: int) -> list[float]:
    return [sum(values[i:i + size]) for i in range(0, len(values), size)]


def _deployment_counts(deployments) -> dict[str, float]:
    """Mapper, runner and monitor counters summed over deployments."""
    probes = hits = requeues = sessions = 0
    for deployment in deployments:
        probes += deployment.mapper.snapshot_probes
        hits += deployment.mapper.snapshot_cache_hits
        requeues += sum(
            runner.requeues
            for runner in (deployment.local_runner, deployment.docker_runner,
                           deployment.singularity_runner)
        )
        if deployment.monitor is not None:
            sessions += len(deployment.monitor.sessions)
    return {
        "core.mapper.snapshot_probes": probes,
        "core.mapper.snapshot_cache_hits": hits,
        "core.mapper.cache_hit_ratio": hits / (probes + hits) if probes + hits else 0.0,
        "galaxy.runners.requeues": requeues,
        "core.monitor.sessions": sessions,
    }


class Workload:
    """Inputs are made in ``__init__``; ``warm_up`` runs one small
    untimed operation so lazy imports land in set-up, not in a repeat."""

    name = ""
    why = ""
    #: Host seconds ``__init__`` spent generating inputs.
    generate_s = 0.0

    def __init__(self, seed: int, scale: float, tracer) -> None:
        self.seed = seed
        self.scale = scale
        self.tracer = tracer

    def sized(self, full: int) -> int:
        return max(1, round(full * self.scale))

    def warm_up(self) -> None:
        raise NotImplementedError

    def repeat(self) -> Repeat:
        raise NotImplementedError


# --------------------------------------------------------------------- #
# paper-cli
# --------------------------------------------------------------------- #
class PaperCli(Workload):
    name = "paper-cli"
    why = ("one paper job per CLI call: every op rebuilds the deployment and "
           "re-parses tool XML and job_conf; the mapper's cache is always cold")

    ROUNDS = 25
    ARGVS = (
        ("racon", "--workload", "dataset"),
        ("racon", "--workload", "dataset", "--container"),
        ("racon",),
        ("bonito",),
        ("cases",),
    )
    #: argv index -> (pattern over its stdout, the paper's number).  From
    #: EXPERIMENTS.md: Racon dataset end to end 200 s, Racon unit on the
    #: GPU 1.72 s, Bonito A. pittii on the GPU 4.06 h.  The CPU unit
    #: anchor (3.22 s) is printed by none of the five commands.
    ANCHORS = {
        0: (re.compile(r"^runtime:\s+([0-9.]+) s", re.M), 200.0),
        2: (re.compile(r"^runtime:\s+([0-9.]+) s", re.M), 1.72),
        3: (re.compile(r"^runtime:\s+([0-9.]+) h", re.M), 4.06),
    }
    #: The error at the commit that defined the benchmark is 0.284 %
    #: (Racon dataset, 200.568 s); any rise fails the paper ops.
    PAPER_ERR_LIMIT_PCT = 0.2841
    STATE_OK = re.compile(r"^state:\s+ok$", re.M)

    def __init__(self, seed, scale, tracer):
        super().__init__(seed, scale, tracer)
        rng = random.Random(seed)
        self.order: list[int] = []
        for _ in range(self.sized(self.ROUNDS)):
            round_order = list(range(len(self.ARGVS)))
            rng.shuffle(round_order)
            self.order += round_order
        self.reference: list[bytes] = []
        self.reference_problems: list[str] = []
        self.paper_err_pct = 0.0

    def _call(self, op: int, index: int) -> tuple[float, int, bytes]:
        import repro.cli as cli

        path = OUT / f"{self.name}-{index}.txt"
        self.tracer.begin_root(op)
        with open(path, "w") as stream, contextlib.redirect_stdout(stream):
            code = cli.main(list(self.ARGVS[index]))
        seconds = self.tracer.end_root()
        return seconds, code, path.read_bytes()

    def warm_up(self):
        for index, argv in enumerate(self.ARGVS):
            _, code, output = self._call(-1, index)
            self.reference.append(output)
            text = output.decode()
            if code != 0:
                self.reference_problems.append(f"{argv}: exit code {code}")
            if argv[0] != "cases" and not self.STATE_OK.search(text):
                self.reference_problems.append(f"{argv}: no 'state: ok' line")
            if index in self.ANCHORS:
                pattern, paper = self.ANCHORS[index]
                match = pattern.search(text)
                if match is None:
                    self.reference_problems.append(f"{argv}: no runtime line")
                    continue
                error = abs(float(match.group(1)) - paper) / paper * 100.0
                self.paper_err_pct = max(self.paper_err_pct, error)
        if self.paper_err_pct > self.PAPER_ERR_LIMIT_PCT:
            self.reference_problems.append(
                f"paper_err_pct {self.paper_err_pct:.4f} above "
                f"{self.PAPER_ERR_LIMIT_PCT}"
            )

    def _stretches(self, op_s) -> list[float]:
        # Every round runs each of the five commands once, so rounds do
        # equal work and the best one stands for all of them.
        rounds = _chunk_sums(op_s, len(self.ARGVS))
        return [min(rounds)] * len(rounds)

    def repeat(self):
        op_s, failed, out_bytes = [], 0, 0
        problems = list(self.reference_problems)
        for op, index in enumerate(self.order):
            seconds, code, output = self._call(op, index)
            op_s.append(seconds)
            out_bytes += len(output)
            if code != 0 or output != self.reference[index]:
                failed += 1
                problems.append(
                    f"op {op} {self.ARGVS[index]}: exit code {code}, "
                    "or stdout differs from the warm-up run"
                )
        if self.reference_problems:
            failed = len(self.order)
        deployments = self.tracer.kept["core.orchestrator.build"]
        counts = _deployment_counts(deployments)
        counts["cli.out_bytes"] = out_bytes
        counts["paper_err_pct"] = self.paper_err_pct
        return Repeat(
            wall_s=sum(op_s),
            ops=len(self.order),
            failed=failed,
            digest=_sha(bytes(self.order), *self.reference),
            sim_s=sum(d.clock.now for d in deployments),
            op_s=op_s,
            stretch_s=self._stretches(op_s),
            counts=counts,
            problems=problems[:5],
        )


# --------------------------------------------------------------------- #
# object-trace
# --------------------------------------------------------------------- #
class ObjectTrace(Workload):
    name = "object-trace"
    why = ("one long-lived deployment, Poisson arrivals: almost every job is a "
           "snapshot-cache miss, so smi render, usage parse, mapper and runners "
           "dominate and per-job cost grows with deployment age")

    JOBS = 1200
    #: 5 s, not the CLI's 2 s default: at 2 s a 200-job trace exhausts
    #: the 48 CPU slots and ``repro trace`` tracebacks.
    MEAN_INTERARRIVAL_S = 5.0
    WARM_UP_JOBS = 20
    STRETCH_OPS = 12

    def __init__(self, seed, scale, tracer):
        super().__init__(seed, scale, tracer)
        from repro.workloads.traces import generate_trace

        start = perf_counter()
        self.trace = generate_trace(
            n_jobs=self.sized(self.JOBS),
            mean_interarrival_s=self.MEAN_INTERARRIVAL_S,
            seed=seed,
        )
        self.generate_s = perf_counter() - start

    def warm_up(self):
        self._replay(self.trace.entries[: self.WARM_UP_JOBS])

    def repeat(self):
        return self._replay(self.trace.entries)

    def _replay(self, entries) -> Repeat:
        import repro
        from repro.galaxy.app import ToolExecutionResult

        # A fresh deployment per repeat (built outside the timed ops) so
        # the virtual clock restarts and repeats are comparable.
        deployment = repro.build_deployment()
        repro.register_paper_tools(deployment.app)
        app, clock, tracer = deployment.app, deployment.clock, self.tracer
        for executable in list(app.executors):
            app.register_executor(
                executable,
                lambda argv, ctx: ToolExecutionResult(stdout="trace stub"),
            )
        running: list = []  # heap of (end, op, runner, handle)

        def finish_until(when: float) -> None:
            while running and running[0][0] <= when:
                end, _, runner, handle = heapq.heappop(running)
                if clock.now < end:
                    clock.advance_to(end)
                runner.finish(handle)

        jobs, op_s, problems = [], [], []
        for op, entry in enumerate(entries):
            tracer.begin_root(op)
            try:
                finish_until(entry.arrival_time)
                if clock.now < entry.arrival_time:
                    clock.advance_to(entry.arrival_time)
                job = app.submit(
                    entry.tool_id,
                    {"workload": "unit", "trace_duration": entry.duration},
                )
                destination = app.map_destination(job)
                runner = app.runner_for(destination)
                handle = runner.launch(job, destination)
                heapq.heappush(
                    running, (clock.now + entry.duration, op, runner, handle)
                )
                jobs.append(job)
            except Exception as exc:  # counted as a failed op below
                problems.append(f"op {op}: {type(exc).__name__}: {exc}")
            op_s.append(tracer.end_root())
        tracer.begin_root(len(entries))
        finish_until(float("inf"))
        drain_s = tracer.end_root()

        record = [
            (job.tool.tool_id, job.metrics.destination_id,
             tuple(job.metrics.gpu_ids), job.metrics.start_time,
             job.metrics.end_time, job.state.value)
            for job in jobs
        ]
        not_ok = sum(1 for job in jobs if job.state.value != "ok")
        if not_ok:
            problems.append(f"{not_ok} job(s) did not end ok")
        return Repeat(
            wall_s=sum(op_s) + drain_s,
            ops=len(entries),
            failed=len(entries) - len(jobs) + not_ok,
            digest=_sha(repr(record).encode()),
            sim_s=clock.now,
            op_s=op_s,
            stretch_s=_chunk_sums(op_s, self.STRETCH_OPS) + [drain_s],
            counts=_deployment_counts([deployment]),
            problems=problems[:5],
        )


# --------------------------------------------------------------------- #
# overload-storm
# --------------------------------------------------------------------- #
class OverloadStorm(Workload):
    name = "overload-storm"
    why = ("the same object path under 10x bursts: bounded queues reject, degrade "
           "arms redirect, brownout sheds; resilience and launch/finish do the work")

    JOBS = 1500
    WARM_UP_JOBS = 16

    def __init__(self, seed, scale, tracer):
        super().__init__(seed, scale, tracer)
        from repro.galaxy.app import GalaxyApp

        tracer.mark_calls(GalaxyApp, "submit")  # one mark per requested job

    def warm_up(self):
        self._storm(self.WARM_UP_JOBS)

    def repeat(self):
        return self._storm(self.sized(self.JOBS))

    def _storm(self, jobs: int) -> Repeat:
        import repro.workloads.storm as storm

        self.tracer.begin_root(0)
        result = storm.run_storm(jobs=jobs, seed=self.seed, hardened=True)
        text = result.to_json()
        (OUT / f"{self.name}.json").write_text(text)
        wall_s = self.tracer.end_root()

        problems = []
        if result.crashed is not None:
            problems.append(f"crashed: {result.crashed}")
        if result.lost_admitted:
            problems.append(f"{result.lost_admitted} admitted job(s) lost")
        accounted = result.admitted + result.shed_total + result.never_submitted
        if accounted != jobs:
            problems.append(f"ledger: {jobs} requested, {accounted} accounted for")
        counts = _deployment_counts(self.tracer.kept["core.orchestrator.build"])
        counts.update({
            "resilience.overload.admitted": result.admitted,
            "resilience.overload.shed": result.shed_total,
            "resilience.overload.redirects": result.redirects,
            "resilience.overload.breaker_trips": result.breaker_trips,
            "resilience.overload.brownout_peak": result.brownout_peak_level,
        })
        return Repeat(
            wall_s=wall_s,
            ops=jobs,
            failed=jobs if problems else 0,
            digest=_sha(text.encode()),
            sim_s=result.end_time,
            stretch_s=self.tracer.stretches(),
            counts=counts,
            problems=problems,
        )


# --------------------------------------------------------------------- #
# fleet workloads
# --------------------------------------------------------------------- #
def _check_fleet(data: dict, label: str) -> list[str]:
    problems = []
    if data.get("schema") != "gyan.fleet/v1":
        problems.append(f"{label}: schema is {data.get('schema')!r}")
        return problems
    ended = data["completed"] + sum(data["shed"].values()) + data["failed"]
    if data["jobs_submitted"] != ended:
        problems.append(
            f"{label}: {data['jobs_submitted']} submitted, {ended} ended"
        )
    return problems


def _mark_fleet_batches(tracer) -> None:
    from repro.cluster.jobstore import JobStore

    tracer.mark_calls(JobStore, "append_batch")  # one mark per arrival batch


def _fleet_repeat(wall_s: float, texts: list[str], labels: list[str], tracer) -> Repeat:
    """Checks and counters over the ``gyan.fleet/v1`` documents of a repeat."""
    problems: list[str] = []
    totals = dict.fromkeys(
        ("mapping_decisions", "queued", "degraded", "resubmitted",
         "quarantines", "scale_ups", "scale_downs", "node_seconds"), 0)
    shed = 0
    sim_s = 0.0
    for text, label in zip(texts, labels):
        try:
            data = json.loads(text)
        except ValueError as exc:
            problems.append(f"{label}: not JSON ({exc})")
            continue
        doc_problems = _check_fleet(data, label)
        if doc_problems:
            problems += doc_problems
            continue
        for key in totals:
            totals[key] += data[key]
        shed += sum(data["shed"].values())
        sim_s += data["end_time"]
    ops = totals["mapping_decisions"]
    counts = {f"cluster.fleet.{key}": value for key, value in totals.items()}
    counts["cluster.fleet.shed"] = shed
    batches = tracer.kept["workloads.diurnal.generate"]
    counts["workloads.diurnal.batches"] = sum(len(b) for b in batches)
    counts["workloads.diurnal.jobs"] = sum(
        batch.count for b in batches for batch in b
    )
    return Repeat(
        wall_s=wall_s,
        ops=max(ops, 1),
        failed=max(ops, 1) if problems else 0,
        digest=_sha(*(text.encode() for text in texts)),
        sim_s=sim_s,
        stretch_s=tracer.stretches(),
        counts=counts,
        problems=problems[:5],
    )


class FleetDay(Workload):
    """One diurnal day through ``repro fleet --format json``, stdout to a file."""

    NODES = 1000
    GPUS_PER_NODE = 8
    JOBS = 1_100_000
    EXTRA_ARGS: tuple[str, ...] = ()
    WARM_UP_ARGS = ("--nodes", "8", "--gpus-per-node", "2", "--jobs", "400")
    WARM_UP_EXTRA: tuple[str, ...] = ()

    def __init__(self, seed, scale, tracer):
        super().__init__(seed, scale, tracer)
        _mark_fleet_batches(tracer)

    def _argv(self, shape, extra) -> list[str]:
        return ["fleet", *shape, "--seed", str(self.seed), "--format", "json", *extra]

    def _run(self, argv) -> Repeat:
        import repro.cli as cli

        path = OUT / f"{self.name}.json"
        self.tracer.begin_root(0)
        with open(path, "w") as stream, contextlib.redirect_stdout(stream):
            code = cli.main(argv)
        wall_s = self.tracer.end_root()
        repeat = _fleet_repeat(wall_s, [path.read_text()], [self.name], self.tracer)
        repeat.counts["cli.out_bytes"] = path.stat().st_size
        if code != 0:
            repeat.problems.append(f"exit code {code}")
            repeat.failed = repeat.ops
        return repeat

    def warm_up(self):
        self._run(self._argv(self.WARM_UP_ARGS, self.WARM_UP_EXTRA))

    def repeat(self):
        shape = ("--nodes", str(self.NODES),
                 "--gpus-per-node", str(self.GPUS_PER_NODE),
                 "--jobs", str(self.sized(self.JOBS)))
        return self._run(self._argv(shape, self.EXTRA_ARGS))


class FleetStaticDay(FleetDay):
    name = "fleet-static-day"
    why = ("the headline 1000x8 fleet day through the CLI to JSON on disk: "
           "placement, the event heap and JobStore dominate; queues, shedding "
           "and pools are idle")


class FleetElasticDay(FleetDay):
    name = "fleet-elastic-day"
    why = ("the same day with the autoscaler on: pool events, controller "
           "evaluations, drain-and-resubmit and the node-seconds meter")

    EXTRA_ARGS = ("--autoscale", "--min-nodes", "250",
                  "--scale-up-step", "100", "--scale-down-step", "50")
    WARM_UP_EXTRA = ("--autoscale", "--min-nodes", "2")


class FleetStormSurge(Workload):
    name = "fleet-storm-surge"
    why = ("an undersized 50x8 fleet under a 20x midday storm with two node "
           "failures, once per placement policy: queue drain, shed, degrade "
           "and resubmit chains dominate, fresh placement does little")

    NODES = 50
    GPUS_PER_NODE = 8
    JOBS = 120_000
    QUEUE_LIMIT = 32
    DEADLINE_SECONDS = 1800.0
    #: (start, duration, multiplier): 12:00-14:00 at 20x.
    STORM = (43_200.0, 7_200.0, 20.0)
    #: (time, node, recovery seconds).
    FAILURES = ((44_000.0, 0, 3_600.0), (45_000.0, 1, 1_800.0))
    POLICIES = ("spread", "pack", "benefit-aware")
    WARM_UP_JOBS = 2_000

    def __init__(self, seed, scale, tracer):
        super().__init__(seed, scale, tracer)
        _mark_fleet_batches(tracer)

    def warm_up(self):
        self._surge(self.WARM_UP_JOBS)

    def repeat(self):
        return self._surge(self.sized(self.JOBS))

    def _surge(self, jobs: int) -> Repeat:
        # Through the API: the CLI exposes neither failures nor deadlines.
        import repro.cluster.fleet as fleet
        from repro.workloads.diurnal import BurstStorm, DiurnalProfile

        profile = DiurnalProfile(
            seed=self.seed, storms=(BurstStorm(*self.STORM),)
        ).scaled_to(jobs)
        failures = tuple(fleet.NodeFailure(*f) for f in self.FAILURES)
        texts = []
        self.tracer.begin_root(0)
        for policy in self.POLICIES:
            config = fleet.FleetConfig(
                nodes=self.NODES,
                gpus_per_node=self.GPUS_PER_NODE,
                queue_limit=self.QUEUE_LIMIT,
                deadline_seconds=self.DEADLINE_SECONDS,
                failures=failures,
                placement=policy,
            )
            text = fleet.run_fleet(config, profile).to_json()
            (OUT / f"{self.name}-{policy}.json").write_text(text)
            texts.append(text)
        wall_s = self.tracer.end_root()
        return _fleet_repeat(wall_s, texts, list(self.POLICIES), self.tracer)


WORKLOADS = {
    cls.name: cls
    for cls in (PaperCli, ObjectTrace, OverloadStorm,
                FleetStaticDay, FleetElasticDay, FleetStormSurge)
}
