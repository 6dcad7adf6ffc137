"""The overload controller: bounded destinations, deadlines, brownout.

One controller per deployment owns every piece of overload state the
job path consults:

* **per-destination inflight accounting** against each destination's
  ``max_queue_depth`` param — :meth:`admit` raises
  :class:`~repro.resilience.shedding.RejectedBusy` at the limit and
  :meth:`release` is idempotent per job, so a crashed launch can never
  leak a slot;
* **deadline stamping and expiry checks** (``deadline_s`` param) on the
  virtual clock;
* **runtime budgets** (``runtime_budget_s`` param) that the runner's
  finish path uses to kill overlong jobs into the resubmit chain;
* the **brownout ladder** — every admit/release feeds the saturation
  signal (max depth÷limit over bounded destinations) into the
  :class:`~repro.resilience.brownout.BrownoutController`;
* all ``gyan_overload_*`` counters and gauges, plus shed/breaker tracer
  instants.

The controller never reads a wall clock and keeps no unordered state
that reaches an output — peaks and shed records are accumulated in
deterministic admission order, so byte-stable summaries fall out for
free.
"""

from __future__ import annotations

from repro.galaxy.job import JobState
from repro.resilience.brownout import BrownoutController
from repro.resilience.shedding import RejectedBusy, ShedReason

#: ``<param id="max_queue_depth">`` — inflight bound of one destination.
QUEUE_DEPTH_PARAM = "max_queue_depth"
#: ``<param id="deadline_s">`` — queue-to-start deadline for jobs routed here.
DEADLINE_PARAM = "deadline_s"
#: ``<param id="runtime_budget_s">`` — kill threshold for running jobs.
RUNTIME_BUDGET_PARAM = "runtime_budget_s"


def _float_param(destination, name: str) -> float | None:
    raw = destination.params.get(name)
    if raw is None:
        return None
    try:
        value = float(raw)
    except ValueError:
        return None
    return value if value > 0 else None


def destination_queue_limit(destination) -> int | None:
    """Parse a destination's ``max_queue_depth`` param (None = unbounded)."""
    raw = destination.params.get(QUEUE_DEPTH_PARAM)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        return None
    return value if value > 0 else None


def destination_deadline_s(destination) -> float | None:
    """Parse a destination's ``deadline_s`` param (None = no deadline)."""
    return _float_param(destination, DEADLINE_PARAM)


def destination_runtime_budget_s(destination) -> float | None:
    """Parse a destination's ``runtime_budget_s`` param (None = unlimited)."""
    return _float_param(destination, RUNTIME_BUDGET_PARAM)


class OverloadController:
    """Deployment-wide overload state: admission, deadlines, brownout."""

    def __init__(
        self,
        clock,
        metrics,
        brownout: BrownoutController,
        tracer=None,
    ) -> None:
        self.clock = clock
        self.tracer = tracer
        self.brownout = brownout
        self._inflight: dict[str, int] = {}
        self._limit_cache: dict[str, int | None] = {}
        self._admitted: dict[int, str] = {}  # job_id -> destination_id
        self.peak_inflight: dict[str, int] = {}
        #: (job_id, tool_id, reason-value) in shed order.
        self.shed_records: list[tuple[int, str, str]] = []
        self._c_shed = metrics.counter(
            "gyan_overload_shed_total",
            "Jobs refused or dropped by the overload layer, by typed reason.",
            labels=("reason",),
        )
        self._c_rejected = metrics.counter(
            "gyan_overload_rejected_busy_total",
            "Admission attempts bounced off a full destination queue.",
            labels=("destination",),
        )
        self._c_redirects = metrics.counter(
            "gyan_overload_redirects_total",
            "Jobs re-routed along a degrade arm after REJECTED_BUSY.",
        )
        self._c_runtime_kills = metrics.counter(
            "gyan_overload_runtime_kills_total",
            "Running jobs killed past their destination runtime budget.",
        )
        self._c_breaker = metrics.counter(
            "gyan_overload_breaker_transitions_total",
            "Circuit-breaker state transitions.",
            labels=("breaker", "to_state"),
        )
        self._g_inflight = metrics.gauge(
            "gyan_overload_inflight",
            "Jobs currently admitted to (and not released from) a destination.",
            labels=("destination",),
        )
        self._g_brownout = metrics.gauge(
            "gyan_overload_brownout_level",
            "Current rung of the brownout degradation ladder.",
        )

    # -- admission ------------------------------------------------------

    def depth(self, destination_id: str) -> int:
        return self._inflight.get(destination_id, 0)

    def saturation(self) -> float:
        """Worst depth÷limit ratio across bounded destinations (0 when none)."""
        worst = 0.0
        for dest_id, limit in sorted(self._limit_cache.items()):
            if limit:
                worst = max(worst, self._inflight.get(dest_id, 0) / limit)
        return worst

    def admit(self, job, destination) -> None:
        """Admit one job to a destination or raise :class:`RejectedBusy`.

        Idempotent: a job already admitted to the same destination is a
        no-op rather than double-counted.
        """
        dest_id = destination.destination_id
        if self._admitted.get(job.job_id) == dest_id:
            return
        limit = self._cached_limit(destination)
        depth = self.depth(dest_id)
        if limit is not None and depth >= limit:
            self._c_rejected.labels(destination=dest_id).inc()
            self._observe_brownout()
            raise RejectedBusy(
                dest_id, ShedReason.QUEUE_FULL, depth=depth, limit=limit
            )
        # Moving between destinations (degrade redirect mid-flight)
        # releases the old slot first.
        self.release(job)
        self._inflight[dest_id] = depth + 1
        self._admitted[job.job_id] = dest_id
        self.peak_inflight[dest_id] = max(
            self.peak_inflight.get(dest_id, 0), depth + 1
        )
        self._g_inflight.labels(destination=dest_id).set(depth + 1)
        self._observe_brownout()

    def release(self, job) -> None:
        """Release a job's admission slot (idempotent)."""
        dest_id = self._admitted.pop(job.job_id, None)
        if dest_id is None:
            return
        remaining = max(0, self._inflight.get(dest_id, 0) - 1)
        self._inflight[dest_id] = remaining
        self._g_inflight.labels(destination=dest_id).set(remaining)
        self._observe_brownout()

    def _cached_limit(self, destination) -> int | None:
        dest_id = destination.destination_id
        if dest_id not in self._limit_cache:
            self._limit_cache[dest_id] = destination_queue_limit(destination)
        return self._limit_cache[dest_id]

    # -- deadlines and budgets -----------------------------------------

    def deadline_for(self, destination, submitted_at: float) -> float | None:
        """Absolute deadline for a job submitted at ``submitted_at``."""
        window = destination_deadline_s(destination)
        if window is None:
            return None
        return submitted_at + window

    def expired(self, job) -> bool:
        deadline = job.metrics.deadline
        if deadline is None:
            return False
        return self.clock.now > deadline

    def runtime_budget(self, destination) -> float | None:
        return destination_runtime_budget_s(destination)

    def record_runtime_kill(self) -> None:
        self._c_runtime_kills.inc()

    def record_redirect(self) -> None:
        self._c_redirects.inc()

    # -- shedding -------------------------------------------------------

    def shed(self, job, reason: ShedReason, note: str = "") -> None:
        """Refuse a job with a typed reason (NEW/QUEUED → DELETED)."""
        now = self.clock.now
        self.release(job)
        if not job.is_terminal:
            job.transition(JobState.DELETED, now=now)
        job.metrics.shed_reason = reason.value
        message = f"shed: {reason.value}"
        if note:
            message += f" ({note})"
        job.stderr += message if not job.stderr else "\n" + message
        self.shed_records.append((job.job_id, job.tool.tool_id, reason.value))
        self._c_shed.labels(reason=reason.value).inc()
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.instant(
                "shed", "job", job_id=job.job_id, reason=reason.value
            )
            self.tracer.end_job(job.job_id, state=str(job.state))

    def shed_by_reason(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for _, _, reason in self.shed_records:
            counts[reason] = counts.get(reason, 0) + 1
        return dict(sorted(counts.items()))

    # -- brownout + breakers -------------------------------------------

    def should_shed(self, tool_id: str) -> bool:
        return self.brownout.should_shed(tool_id)

    def _observe_brownout(self) -> None:
        level = self.brownout.observe(self.saturation(), self.clock.now)
        self._g_brownout.set(level)

    def record_breaker_transition(self, name: str, now: float, new_state) -> None:
        """Metrics/trace hook the orchestrator wires into each breaker."""
        self._c_breaker.labels(breaker=name, to_state=str(new_state)).inc()
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.instant(
                "breaker", "runner", breaker=name, state=str(new_state)
            )
