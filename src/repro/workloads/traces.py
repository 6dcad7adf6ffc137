"""Job-arrival traces: time-driven scheduling workloads.

The paper's multi-GPU cases are hand-placed four-job scenarios; real
deployments see stochastic streams of heterogeneous submissions.  This
module generates reproducible Poisson-arrival traces of mixed tool
submissions and replays them against a GYAN deployment on the virtual
clock, collecting the scheduling statistics (placements, queue of
overlaps, per-device occupancy over time) the allocation-strategy
ablations compare.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.galaxy.runners.base import LaunchedTool

#: Tool mix of a typical long-read shop: mostly polishing, some
#: basecalling, occasional CPU utility jobs.
DEFAULT_TOOL_MIX: dict[str, float] = {
    "racon": 0.5,
    "bonito": 0.3,
    "seqstats": 0.2,
}
#: Virtual runtime (s) of each tool's unit job in trace replays.
DEFAULT_DURATIONS: dict[str, float] = {
    "racon": 1.72,
    "bonito": 22.0,
    "seqstats": 0.5,
}


@dataclass(frozen=True)
class TraceEntry:
    """One submission in an arrival trace."""

    arrival_time: float
    tool_id: str
    duration: float


@dataclass
class ArrivalTrace:
    """A reproducible sequence of job arrivals."""

    entries: list[TraceEntry] = field(default_factory=list)
    seed: int = 0

    def __len__(self) -> int:
        return len(self.entries)

    def tool_counts(self) -> dict[str, int]:
        """Submissions per tool."""
        counts: dict[str, int] = {}
        for entry in self.entries:
            counts[entry.tool_id] = counts.get(entry.tool_id, 0) + 1
        return counts


def generate_trace(
    n_jobs: int = 20,
    mean_interarrival_s: float = 5.0,
    tool_mix: dict[str, float] | None = None,
    durations: dict[str, float] | None = None,
    seed: int = 0,
) -> ArrivalTrace:
    """Poisson arrivals with a categorical tool mix.

    Durations get +-20 % lognormal-ish jitter so overlapping intervals
    vary between seeds.
    """
    if n_jobs <= 0:
        raise ValueError("n_jobs must be positive")
    if mean_interarrival_s <= 0:
        raise ValueError("mean_interarrival_s must be positive")
    if not math.isfinite(mean_interarrival_s):
        raise ValueError(
            f"mean_interarrival_s must be finite, got {mean_interarrival_s}"
        )
    tool_mix = tool_mix or DEFAULT_TOOL_MIX
    durations = durations or DEFAULT_DURATIONS
    total = sum(tool_mix.values())
    tools = sorted(tool_mix)
    probabilities = [tool_mix[t] / total for t in tools]
    missing = [t for t in tools if t not in durations]
    if missing:
        raise ValueError(f"no duration for tools: {missing}")
    rng = np.random.default_rng(seed)
    now = 0.0
    entries: list[TraceEntry] = []
    for _ in range(n_jobs):
        now += float(rng.exponential(mean_interarrival_s))
        tool_id = tools[int(rng.choice(len(tools), p=probabilities))]
        duration = float(durations[tool_id] * rng.uniform(0.8, 1.2))
        entries.append(
            TraceEntry(arrival_time=now, tool_id=tool_id, duration=duration)
        )
    return ArrivalTrace(entries=entries, seed=seed)


@dataclass
class ReplayedJob:
    """Outcome of one trace entry."""

    entry: TraceEntry
    gpu_ids: tuple[str, ...]
    gpu_enabled: bool
    start_time: float
    end_time: float
    #: Queueing delay before launch (0 except under the 'wait' policy).
    wait_time: float = 0.0

    @property
    def spread(self) -> int:
        """How many devices the job occupied."""
        return len(self.gpu_ids)

    @property
    def completion_time(self) -> float:
        """Arrival-to-finish latency (wait + execution)."""
        return self.end_time - self.entry.arrival_time


@dataclass
class ReplayResult:
    """Aggregate outcome of a trace replay."""

    jobs: list[ReplayedJob] = field(default_factory=list)
    max_concurrent_per_gpu: dict[str, int] = field(default_factory=dict)

    @property
    def gpu_jobs(self) -> list[ReplayedJob]:
        """Jobs that actually ran on a GPU."""
        return [j for j in self.jobs if j.gpu_enabled]

    @property
    def scattered_jobs(self) -> int:
        """GPU jobs spread over more than one device."""
        return sum(1 for j in self.gpu_jobs if j.spread > 1)

    def mean_completion_time(self) -> float:
        """Mean arrival-to-finish latency of the GPU jobs."""
        gpu_jobs = self.gpu_jobs
        if not gpu_jobs:
            return 0.0
        return sum(j.completion_time for j in gpu_jobs) / len(gpu_jobs)

    def mean_wait_time(self) -> float:
        """Mean queueing delay of the GPU jobs."""
        gpu_jobs = self.gpu_jobs
        if not gpu_jobs:
            return 0.0
        return sum(j.wait_time for j in gpu_jobs) / len(gpu_jobs)


class InFlightSet:
    """Launched tools held until their virtual end, for trace replay and
    the burst storm alike.

    Tools finish in (end, launch order), the clock advancing to each end
    before its finish.  Inside ``with`` every executor is a stub: the
    caller's end times dictate execution, so the executors' own virtual
    time must not interfere (placement happens at launch, before any
    body runs).
    """

    def __init__(self, app) -> None:
        self.app = app
        self._heap: list[tuple[float, int, LaunchedTool]] = []
        self._seq = 0

    def __enter__(self) -> "InFlightSet":
        from repro.galaxy.app import ToolExecutionResult

        def stub(argv, ctx):
            return ToolExecutionResult(stdout="trace stub")

        self._saved_executors = self.app.executors
        self.app.executors = dict.fromkeys(self._saved_executors, stub)
        return self

    def __exit__(self, *exc_info) -> None:
        self.app.executors = self._saved_executors

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def earliest(self) -> float:
        """The end time of the next tool due."""
        return self._heap[0][0]

    def hold(self, end: float, launched: LaunchedTool) -> None:
        """Hold ``launched`` until the clock reaches ``end``."""
        self._seq += 1
        heapq.heappush(self._heap, (end, self._seq, launched))

    def finish_until(self, when: float) -> list[LaunchedTool]:
        """Finish every tool due by ``when`` (``earliest``: every tool tied
        at the earliest end); returns them in finish order."""
        clock = self.app.node.clock
        finished = []
        while self._heap and self._heap[0][0] <= when:
            end, _, launched = heapq.heappop(self._heap)
            if clock.now < end:
                clock.advance_to(end)
            launched.runner.finish(launched)
            finished.append(launched)
        return finished


class TraceReplayer:
    """Replays an arrival trace against one GYAN deployment.

    Jobs start at their arrival instant (the virtual clock jumps
    forward between arrivals) and hold their GPU processes for their
    trace duration, so later arrivals observe realistic occupancy —
    exactly the contention pattern the allocation strategies differ on.
    A GPU job sharing a device with k-1 others at launch runs ~k times
    longer (time-shared SMs) — a first-order model of the "stalling due
    to context switching" the paper's §IV-C2 motivates the memory
    strategy with.

    Parameters
    ----------
    deployment:
        A GYAN deployment (its mapper's strategy governs placement).
    gpu_policy:
        ``"place"`` (default) launches GPU jobs immediately, wherever
        the allocation strategy puts them — the paper's behaviour.
        ``"wait"`` holds a GPU job in a queue until some device is idle
        (the design alternative the A7 ablation compares).
    """

    def __init__(self, deployment, gpu_policy: str = "place") -> None:
        if gpu_policy not in ("place", "wait"):
            raise ValueError(f"unknown gpu_policy {gpu_policy!r}")
        self.deployment = deployment
        self.gpu_policy = gpu_policy

    def replay(self, trace: ArrivalTrace) -> ReplayResult:
        """Run the trace to completion; returns the replay statistics."""
        deployment = self.deployment
        clock = deployment.clock
        gpu_host = deployment.gpu_host
        result = ReplayResult()
        concurrency: dict[str, int] = {
            str(d.minor_number): 0 for d in gpu_host.devices
        }
        peaks = dict(concurrency)

        def release(finished: list[LaunchedTool]) -> None:
            for launched in finished:
                if launched.host_process is not None:
                    for index in launched.host_process.device_indices:
                        concurrency[str(index)] -= 1

        with InFlightSet(deployment.app) as running:
            for entry in trace.entries:
                release(running.finish_until(entry.arrival_time))
                if clock.now < entry.arrival_time:
                    clock.advance_to(entry.arrival_time)
                if (
                    self.gpu_policy == "wait"
                    and deployment.app.tool(entry.tool_id).requires_gpu
                ):
                    # Hold the job until a device frees up.
                    while not gpu_host.available_devices() and running:
                        release(running.finish_until(running.earliest))
                launch_time = max(clock.now, entry.arrival_time)
                launched = deployment.launch_tool(
                    entry.tool_id,
                    {"workload": "unit", "trace_duration": entry.duration},
                )
                gpu_ids: tuple[str, ...] = ()
                sharing = 1
                if launched.host_process is not None:
                    gpu_ids = tuple(
                        str(i) for i in launched.host_process.device_indices
                    )
                    for gid in gpu_ids:
                        concurrency[gid] += 1
                        peaks[gid] = max(peaks[gid], concurrency[gid])
                    if gpu_ids:
                        sharing = max(concurrency[gid] for gid in gpu_ids)
                end_time = launch_time + entry.duration * sharing
                running.hold(end_time, launched)
                result.jobs.append(
                    ReplayedJob(
                        entry=entry,
                        gpu_ids=gpu_ids,
                        gpu_enabled=bool(gpu_ids),
                        start_time=launch_time,
                        end_time=end_time,
                        wait_time=launch_time - entry.arrival_time,
                    )
                )
            running.finish_until(math.inf)
        result.max_concurrent_per_gpu = peaks
        return result
