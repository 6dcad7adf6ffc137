"""repro.faults — deterministic, seeded GPU fault injection.

Production GPU fleets fail in a small number of well-documented ways:
devices fall off the bus (XID 79), double-bit ECC errors accumulate
(XID 48), NVML queries time out or return ``GPU_IS_LOST`` transiently
while the driver recovers, and container launches hit daemon hiccups.
This module turns each of those into a *schedulable event* on the
simulator's virtual clock, so the whole resilience stack — quarantine,
backoff, resubmission — can be exercised deterministically and
byte-for-byte reproducibly.

Three layers:

:class:`FaultPlane`
    Per-host queues of pending transient failures, consumed by the NVML
    shim, the ``nvidia-smi`` emulator and the container runtimes at their
    next call.  This is how "the next NVML query fails" is expressed
    without monkeypatching.
:class:`InjectionPlan` / :class:`FaultEvent`
    A declarative, JSON-serialisable schedule: *at clock time T, do X*.
    Plans carry the seed that generated them, so a scenario is fully
    described by ``(name, seed)``.
:class:`FaultInjector`
    Arms a plan against a :class:`~repro.gpusim.host.GPUHost`: every
    event becomes a ``clock.call_at`` callback that mutates the simulator
    when the workload's own activity advances the clock past it.

Named chaos scenarios (:data:`SCENARIOS`) generate plans from a seed —
the CLI (``python -m repro faults``) and the chaos tests share them.
"""

from __future__ import annotations

import enum
import json
import random
from collections import deque
from dataclasses import dataclass, field

from typing import TYPE_CHECKING

from repro.gpusim.errors import NVMLError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (host owns a plane)
    from repro.gpusim.host import GPUHost


class FaultKind(str, enum.Enum):
    """The taxonomy of injectable faults."""

    #: The device falls off the bus (XID 79): processes lose their
    #: contexts, the driver stops enumerating it.
    DEVICE_LOST = "device_lost"
    #: The device comes back (driver reset / node reboot).
    DEVICE_RECOVER = "device_recover"
    #: Uncorrected ECC errors are logged (XID 48); the device stays up
    #: but the health tracker should start counting.
    ECC_ERRORS = "ecc_errors"
    #: The next ``count`` NVML queries (and ``nvidia-smi`` invocations,
    #: which use NVML internally) fail with ``nvml_code``.
    NVML_FLAKE = "nvml_flake"
    #: The next ``count`` container launches on this host fail.
    CONTAINER_LAUNCH_FAIL = "container_launch_fail"


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: *at clock time ``time``, do ``kind``*."""

    time: float
    kind: FaultKind
    #: Target device minor number; ``None`` for host-wide faults
    #: (NVML flakes, container failures).
    device: int | None = None
    #: Multiplicity: ECC errors logged, NVML calls to fail, launches to
    #: fail.
    count: int = 1
    #: NVML return code served by an :attr:`FaultKind.NVML_FLAKE`.
    nvml_code: int = NVMLError.NVML_ERROR_GPU_IS_LOST
    #: XID logged by device faults (79 = off the bus, 48 = DBE ECC).
    xid: int | None = None
    note: str = ""

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("fault time must be non-negative")
        if self.count <= 0:
            raise ValueError("fault count must be positive")
        if self.kind in (FaultKind.DEVICE_LOST, FaultKind.DEVICE_RECOVER,
                         FaultKind.ECC_ERRORS) and self.device is None:
            raise ValueError(f"{self.kind.value} needs a target device")

    def to_dict(self) -> dict:
        """JSON-ready representation (omits defaulted fields)."""
        data: dict = {"time": self.time, "kind": self.kind.value}
        if self.device is not None:
            data["device"] = self.device
        if self.count != 1:
            data["count"] = self.count
        if self.kind is FaultKind.NVML_FLAKE:
            data["nvml_code"] = self.nvml_code
        if self.xid is not None:
            data["xid"] = self.xid
        if self.note:
            data["note"] = self.note
        return data

    @classmethod
    def from_dict(cls, data: dict) -> FaultEvent:
        """Parse one event from its JSON form."""
        return cls(
            time=float(data["time"]),
            kind=FaultKind(data["kind"]),
            device=data.get("device"),
            count=int(data.get("count", 1)),
            nvml_code=int(data.get("nvml_code", NVMLError.NVML_ERROR_GPU_IS_LOST)),
            xid=data.get("xid"),
            note=str(data.get("note", "")),
        )


@dataclass(frozen=True)
class WorkloadSpec:
    """The workload a plan was authored against, embedded in the plan.

    Counterexample plans emitted by the deployment verifier must replay
    against the *exact* deployment the model checker explored — same
    job_conf, same job count and tool order, same hop cap — not the
    chaos CLI's defaults.  Embedding the workload makes the plan file
    self-contained: ``python -m repro faults --plan ce.json`` rebuilds
    the deployment from the spec and reproduces the property violation.
    """

    #: Number of jobs to submit.
    jobs: int = 8
    #: Tool ids cycled over the jobs.
    tools: tuple[str, ...] = ("racon", "bonito")
    #: Build the resilient deployment (health tracker, retries)?
    resilient: bool = True
    #: Inline job_conf XML overriding the deployment default, if any.
    job_conf_xml: str | None = None
    #: Override for GalaxyApp.max_resubmit_hops, if any.
    max_resubmit_hops: int | None = None
    #: What the plan author expects the run to show: "all_ok" or
    #: "job_loss".  Purely documentary; the CLI prints it.
    expect: str | None = None

    def to_dict(self) -> dict:
        data: dict = {"jobs": self.jobs, "tools": list(self.tools),
                      "resilient": self.resilient}
        if self.job_conf_xml is not None:
            data["job_conf_xml"] = self.job_conf_xml
        if self.max_resubmit_hops is not None:
            data["max_resubmit_hops"] = self.max_resubmit_hops
        if self.expect is not None:
            data["expect"] = self.expect
        return data

    @classmethod
    def from_dict(cls, data: dict) -> WorkloadSpec:
        """Parse an embedded workload; ``ValueError`` for one no run can honour."""
        tools = data.get("tools", ["racon", "bonito"])
        if not (isinstance(tools, list) and tools and all(isinstance(t, str) for t in tools)):
            raise ValueError(f"workload tools must be a non-empty list of tool ids, got {tools!r}")
        jobs = int(data.get("jobs", 8))
        hops = data.get("max_resubmit_hops")
        hops = None if hops is None else int(hops)
        for name, value in (("jobs", jobs), ("max_resubmit_hops", hops)):
            if value is not None and value < 0:
                raise ValueError(f"workload {name} must be 0 or more, got {value}")
        return cls(
            jobs=jobs,
            tools=tuple(tools),
            resilient=bool(data.get("resilient", True)),
            job_conf_xml=data.get("job_conf_xml"),
            max_resubmit_hops=hops,
            expect=data.get("expect"),
        )


@dataclass(frozen=True)
class InjectionPlan:
    """A named, seeded schedule of fault events.

    The plan is *the* reproducibility unit: two runs armed with equal
    plans observe identical fault timing, so any divergence comes from
    the workload itself.  A plan may additionally pin the workload it
    was authored against (:class:`WorkloadSpec`) — verifier
    counterexamples do, so they replay byte-for-byte.
    """

    name: str
    seed: int
    events: tuple[FaultEvent, ...]
    workload: WorkloadSpec | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "events", tuple(sorted(self.events, key=lambda e: e.time))
        )

    def to_dict(self) -> dict:
        """JSON-ready representation of the whole plan."""
        data = {
            "name": self.name,
            "seed": self.seed,
            "events": [e.to_dict() for e in self.events],
        }
        if self.workload is not None:
            data["workload"] = self.workload.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> InjectionPlan:
        """Parse a plan from its JSON form."""
        workload = data.get("workload")
        return cls(
            name=str(data.get("name", "unnamed")),
            seed=int(data.get("seed", 0)),
            events=tuple(FaultEvent.from_dict(e) for e in data.get("events", [])),
            workload=WorkloadSpec.from_dict(workload) if workload else None,
        )

    @classmethod
    def from_file(cls, path) -> InjectionPlan:
        """Load a plan from a JSON file (what the CLI's ``--plan`` takes)."""
        with open(path, encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


@dataclass
class FaultPlane:
    """Pending transient failures for one host, consumed at call sites.

    The NVML shim pops :attr:`pending_nvml_errors` on every device/system
    query; the ``nvidia-smi`` emulator does the same (it *is* an NVML
    client); container runtimes pop :attr:`pending_container_failures`
    on ``run``.  Serving a failure consumes it — exactly one call fails
    per injected error, which is what makes retry-with-backoff succeed
    deterministically.
    """

    pending_nvml_errors: deque = field(default_factory=deque)
    pending_container_failures: deque = field(default_factory=deque)
    #: How many injected failures each surface actually served.
    nvml_errors_served: int = 0
    container_failures_served: int = 0
    #: Bumped whenever the pending queues change: a pending (or freshly
    #: consumed) failure alters what the next probe returns, so the
    #: mapper's snapshot cache must not serve across such a transition.
    version: int = 0

    def inject_nvml_error(self, code: int, count: int = 1) -> None:
        """Queue ``count`` NVML failures with return code ``code``."""
        for _ in range(count):
            self.pending_nvml_errors.append(code)
        self.version += 1

    def take_nvml_error(self) -> int | None:
        """Consume one pending NVML failure code, if any."""
        if not self.pending_nvml_errors:
            return None
        self.nvml_errors_served += 1
        self.version += 1
        return self.pending_nvml_errors.popleft()

    def inject_container_failure(self, message: str, count: int = 1) -> None:
        """Queue ``count`` container-launch failures."""
        for _ in range(count):
            self.pending_container_failures.append(message)
        self.version += 1

    def take_container_failure(self) -> str | None:
        """Consume one pending container failure message, if any."""
        if not self.pending_container_failures:
            return None
        self.container_failures_served += 1
        self.version += 1
        return self.pending_container_failures.popleft()


class FaultInjector:
    """Arms an :class:`InjectionPlan` against a host's virtual clock."""

    def __init__(self, host: GPUHost, plan: InjectionPlan) -> None:
        self.host = host
        self.plan = plan
        #: Events that have actually fired, in firing order.
        self.fired: list[FaultEvent] = []
        self._armed = False

    def arm(self) -> None:
        """Schedule every plan event on the host clock (idempotent).

        Events in the clock's past fire immediately on the next advance;
        events in the future fire when workload activity advances the
        clock past them — no wall time is ever involved.
        """
        if self._armed:
            return
        self._armed = True
        # Explicit tie-break keys: two plan events landing on the same
        # virtual instant fire in plan order *by contract*, not by the
        # accident of registration order — gyan-race (DET403) treats
        # keyed ties as pinned and never permutes them.
        for index, event in enumerate(self.plan.events):
            self.host.clock.call_at(
                event.time,
                lambda _now, e=event: self._fire(e),
                key=f"fault:{index:04d}",
            )

    def _fire(self, event: FaultEvent) -> None:
        now = self.host.clock.now
        if event.kind is FaultKind.DEVICE_LOST:
            device = self.host.device(event.device)
            casualties = device.mark_failed(now=now, xid=event.xid or 79)
            detail = {"device": event.device, "xid": event.xid or 79,
                      "casualties": casualties}
        elif event.kind is FaultKind.DEVICE_RECOVER:
            self.host.device(event.device).recover()
            detail = {"device": event.device}
        elif event.kind is FaultKind.ECC_ERRORS:
            self.host.device(event.device).record_ecc_errors(
                count=event.count, now=now, xid=event.xid or 48
            )
            detail = {"device": event.device, "count": event.count}
        elif event.kind is FaultKind.NVML_FLAKE:
            self.host.faults.inject_nvml_error(event.nvml_code, count=event.count)
            detail = {"code": event.nvml_code, "count": event.count}
        elif event.kind is FaultKind.CONTAINER_LAUNCH_FAIL:
            self.host.faults.inject_container_failure(
                event.note or "docker: Error response from daemon: "
                "transient runtime failure",
                count=event.count,
            )
            detail = {"count": event.count}
        else:  # pragma: no cover - exhaustive over FaultKind
            raise ValueError(f"unhandled fault kind {event.kind!r}")
        self.fired.append(event)
        self.host.timeline.record(now, f"fault_{event.kind.value}", detail)


# --------------------------------------------------------------------- #
# named scenarios
# --------------------------------------------------------------------- #
def _k80_die_midrun(seed: int, device_count: int) -> tuple[FaultEvent, ...]:
    """One K80 die dies mid-workload while NVML flakes around it.

    This is the acceptance scenario: the die death strands any job
    running there (it must resubmit), the flakes stress the mapper's
    backoff, and the ECC prelude gives the health tracker a reason to
    quarantine *before* the crash.
    """
    rng = random.Random(seed)
    victim = rng.randrange(device_count)
    death = round(rng.uniform(8.0, 20.0), 3)
    events = [
        FaultEvent(time=round(death * 0.5, 3), kind=FaultKind.ECC_ERRORS,
                   device=victim, count=rng.randint(2, 4),
                   note="DBE prelude to the die death"),
        FaultEvent(time=death, kind=FaultKind.DEVICE_LOST, device=victim,
                   xid=79, note="die falls off the bus"),
    ]
    for _ in range(rng.randint(2, 4)):
        events.append(
            FaultEvent(
                time=round(rng.uniform(0.5, death + 30.0), 3),
                kind=FaultKind.NVML_FLAKE,
                count=1,
                nvml_code=rng.choice(
                    [NVMLError.NVML_ERROR_GPU_IS_LOST, NVMLError.NVML_ERROR_UNKNOWN]
                ),
                note="driver distress around the failure",
            )
        )
    return tuple(events)


def _nvml_flaky(seed: int, device_count: int) -> tuple[FaultEvent, ...]:
    """No device ever dies; NVML just lies intermittently."""
    rng = random.Random(seed)
    return tuple(
        FaultEvent(
            time=round(rng.uniform(0.1, 60.0), 3),
            kind=FaultKind.NVML_FLAKE,
            count=rng.randint(1, 2),
            nvml_code=rng.choice(
                [NVMLError.NVML_ERROR_TIMEOUT, NVMLError.NVML_ERROR_UNKNOWN]
            ),
        )
        for _ in range(rng.randint(4, 7))
    )


def _container_flaky(seed: int, device_count: int) -> tuple[FaultEvent, ...]:
    """The container daemon drops a few launches."""
    rng = random.Random(seed)
    return tuple(
        FaultEvent(
            time=round(rng.uniform(0.0, 30.0), 3),
            kind=FaultKind.CONTAINER_LAUNCH_FAIL,
            count=1,
            note="docker: Error response from daemon: transient "
            "runtime failure",
        )
        for _ in range(rng.randint(2, 4))
    )


def _ecc_storm(seed: int, device_count: int) -> tuple[FaultEvent, ...]:
    """A device accumulates ECC errors until quarantine, then recovers."""
    rng = random.Random(seed)
    victim = rng.randrange(device_count)
    events = [
        FaultEvent(time=round(1.0 + i * rng.uniform(1.0, 3.0), 3),
                   kind=FaultKind.ECC_ERRORS, device=victim, count=1)
        for i in range(rng.randint(4, 6))
    ]
    events.append(
        FaultEvent(time=round(events[-1].time + 120.0, 3),
                   kind=FaultKind.DEVICE_RECOVER, device=victim,
                   note="driver reset clears the counters")
    )
    return tuple(events)


def _burst_storm(seed: int, device_count: int) -> tuple[FaultEvent, ...]:
    """Infrastructure distress clustered inside a submission burst.

    The overload acceptance scenario: NVML flakes and container-daemon
    hiccups arrive *bunched* in a short window — exactly when the
    arrival rate spikes — so a stock deployment crashes its mapper or
    loses launches at the worst possible moment, while a hardened one
    absorbs them with breakers/retries and sheds only typed overflow.
    No device dies: every fault here is transient by construction, so a
    hardened run can finish with zero admitted-job losses.
    """
    rng = random.Random(seed)
    burst_start = round(rng.uniform(10.0, 14.0), 3)
    events = [
        FaultEvent(
            time=round(burst_start + rng.uniform(0.0, 4.0), 3),
            kind=FaultKind.NVML_FLAKE,
            count=1,
            nvml_code=rng.choice(
                [NVMLError.NVML_ERROR_TIMEOUT, NVMLError.NVML_ERROR_UNKNOWN]
            ),
            note="probe flake inside the burst window",
        )
        for _ in range(rng.randint(2, 3))
    ]
    for _ in range(rng.randint(1, 2)):
        events.append(
            FaultEvent(
                time=round(burst_start + rng.uniform(0.5, 5.0), 3),
                kind=FaultKind.CONTAINER_LAUNCH_FAIL,
                count=1,
                note="docker: Error response from daemon: transient "
                "runtime failure",
            )
        )
    return tuple(events)


#: Named scenario generators: ``(seed, device_count) -> events``.
SCENARIOS = {
    "k80-die-midrun": _k80_die_midrun,
    "nvml-flaky": _nvml_flaky,
    "container-flaky": _container_flaky,
    "ecc-storm": _ecc_storm,
    "burst-storm": _burst_storm,
}


def build_scenario(name: str, seed: int = 0, device_count: int = 2) -> InjectionPlan:
    """Materialise a named scenario into a concrete, seeded plan."""
    try:
        generator = SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; expected one of {sorted(SCENARIOS)}"
        ) from None
    return InjectionPlan(
        name=name, seed=seed, events=generator(seed, device_count)
    )
