"""Naive per-job-object reference model for the fleet simulator.

This is the straight-line implementation of the exact same fleet
policy as :class:`repro.cluster.fleet.FleetSimulator` — one Python
object and one event per job, brute-force node scans instead of node
indexes, flag lists instead of one lifecycle state, tagged events
instead of handler-carrying ones, one store transition per job instead
of per range; all it imports from there is :class:`FleetConfig`.  It
exists purely as a
correctness oracle: the property tests drive both implementations with
the same seeded arrival batches and assert the resulting
:class:`~repro.cluster.jobstore.JobStore` columns are *bit-identical*
(same :meth:`~repro.cluster.jobstore.JobStore.digest`), which pins the
columnar bulk-range path to per-job semantics including the PR-7
resilience edges (bounded-queue shed, queue-TTL shed, degrade-to-CPU,
failure resubmit chains, hop-budget exhaustion, quarantine/recovery)
and, since the autoscaling tier, pools and placement policies.

Policy (mirrored exactly by the columnar path):

* GPU placement: ``spread`` scans for the lowest-indexed usable node
  with a free slot; ``pack`` for the usable node with the fewest free
  slots (ties to the lowest index); ``benefit-aware`` spreads but
  admits low-benefit degradable classes one job at a time only while
  the fleet-wide free count exceeds the reserve, degrading the rest.
* Queueing: the policy's best usable node with queue room, FIFO
  (``pack`` prefers the fullest queue with room).
* Overflow: degradable classes run on the CPU arm; others shed
  ``QUEUE_FULL``.  Jobs queued past their TTL shed ``DEADLINE_EXPIRED``
  when a slot would otherwise start them.
* Node failure: quarantine; interrupted running jobs (ascending id)
  then queued jobs (FIFO) resubmit with one more hop, failing outright
  past ``max_hops``.  Recovery restores the node's full capacity, and
  with overlapping outages only the one that ends last recovers it.
* Elasticity: the shared :class:`AutoscaleController` decides deltas
  from signals this model recomputes by brute-force scans (queue sum,
  running count, usable-node sweep); scale-in drains victims through
  the failure resubmit path; provisioned nodes commission after the
  lag, lowest free index first; node-seconds charge through an
  identical :class:`NodeSecondsMeter` call sequence, so cost is
  bit-comparable too.

Do not optimise this module — its value is being obviously correct and
structurally different from the columnar implementation.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from typing import Iterable

from repro.cluster.autoscale import (
    PLACEMENT_BENEFIT,
    PLACEMENT_PACK,
    AutoscaleController,
    NodeSecondsMeter,
    reserve_slots,
)
from repro.cluster.fleet import FleetConfig
from repro.cluster.jobstore import NO_NODE, JobStore
from repro.resilience.shedding import ShedReason
from repro.workloads.diurnal import FleetToolClass, check_arrival

#: Event tags of this model's own (time, seq, kind, node, job, extra)
#: heap; the columnar simulator's events carry their handler instead.
(_EV_GPU_DONE, _EV_CPU_DONE, _EV_FAIL, _EV_RECOVER, _EV_EVAL,
 _EV_PROVISION) = range(6)


class _RefJob:
    """Mutable per-job bookkeeping (the allocation the fleet tier kills)."""

    __slots__ = ("id", "tool", "deadline", "hops", "node")

    def __init__(self, job_id: int, tool: int, deadline: float) -> None:
        self.id = job_id
        self.tool = tool
        self.deadline = deadline
        self.hops = 0
        self.node = NO_NODE


class ObjectFleetReference:
    """Run the fleet policy one job object at a time."""

    def __init__(
        self, config: FleetConfig, tools: tuple[FleetToolClass, ...]
    ) -> None:
        self.config = config
        self.tools = tools
        n = config.nodes
        auto = config.autoscale
        self._pack = config.placement == PLACEMENT_PACK
        self._benefit = config.placement == PLACEMENT_BENEFIT
        self._base = auto.min_nodes if auto is not None else n
        self.store = JobStore(self._base)
        start_nodes = auto.start_nodes if auto is not None else n
        self._active = [i < start_nodes for i in range(n)]
        self._draining = [False] * n
        self._epoch = [1 if i < start_nodes else 0 for i in range(n)]
        self._free = [
            config.slots_per_node if i < start_nodes else 0 for i in range(n)
        ]
        self._quarantined = [False] * n
        #: When each node's latest outage ends (overlapping outages).
        self._quarantine_end = [0.0] * n
        self._queues: list[deque[_RefJob]] = [deque() for _ in range(n)]
        #: event seq → job for every in-flight GPU job.  Keyed by seq,
        #: not job id: a failure-interrupted job restarts under a new
        #: seq, which tombstones the stale completion event.
        self._running: dict[int, _RefJob] = {}
        self._events: list[tuple[float, int, int, int, int, float]] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._pending = 0
        self._shed_at_eval = 0
        self._input_done = False
        self._controller = (
            AutoscaleController(auto) if auto is not None else None
        )
        self.meter = NodeSecondsMeter(start_nodes)
        self.counts = {
            "submitted": 0, "mapped_gpu": 0, "mapped_cpu": 0,
            "degraded": 0, "queued": 0, "completed": 0,
            "resubmitted": 0, "failed": 0, "quarantines": 0,
            "provisioned": 0, "decommissioned": 0,
        }
        self.shed: dict[str, int] = {}
        for failure in config.failures:
            heapq.heappush(
                self._events,
                (failure.time, next(self._seq), _EV_FAIL, failure.node, 0,
                 failure.recovery_seconds),
            )
        if auto is not None:
            heapq.heappush(
                self._events,
                (auto.eval_interval_s, next(self._seq), _EV_EVAL, 0, 0, 0.0),
            )

    # -- naive node scans ------------------------------------------------ #
    def _usable(self, node: int) -> bool:
        return (
            self._active[node]
            and not self._draining[node]
            and not self._quarantined[node]
        )

    def _scan(self, count) -> int | None:
        """Brute force: of the usable nodes with a positive ``count(node)``,
        the lowest index — under ``pack`` the smallest count first."""
        return min(
            (node for node in range(self.config.nodes)
             if self._usable(node) and count(node) > 0),
            key=lambda node: (count(node) if self._pack else 0, node),
            default=None,
        )

    def _scan_free_node(self) -> int | None:
        return self._scan(lambda node: self._free[node])

    def _scan_queue_node(self) -> int | None:
        limit = self.config.queue_limit
        return self._scan(lambda node: limit - len(self._queues[node]))

    def _scan_usable_count(self) -> int:
        return sum(1 for node in range(self.config.nodes)
                   if self._usable(node))

    def _scan_free_total(self) -> int:
        return sum(self._free[node] for node in range(self.config.nodes)
                   if self._usable(node))

    # -- per-job transitions --------------------------------------------- #
    def _start_gpu(self, job: _RefJob, node: int, now: float) -> None:
        job.node = node
        self.store.start_range(
            job.id, job.id + 1, node, now, gpu=True, epoch=self._epoch[node]
        )
        self._free[node] -= 1
        seq = next(self._seq)
        self._running[seq] = job
        heapq.heappush(
            self._events,
            (now + self.tools[job.tool].gpu_seconds, seq,
             _EV_GPU_DONE, node, job.id, 0.0),
        )
        self.counts["mapped_gpu"] += 1

    def _start_cpu(self, job: _RefJob, now: float, degraded: bool) -> None:
        job.node = NO_NODE
        self.store.start_range(job.id, job.id + 1, NO_NODE, now, gpu=False)
        heapq.heappush(
            self._events,
            (now + self.tools[job.tool].cpu_seconds, next(self._seq),
             _EV_CPU_DONE, NO_NODE, job.id, 0.0),
        )
        self.counts["mapped_cpu"] += 1
        if degraded:
            self.counts["degraded"] += 1

    def _shed(self, job: _RefJob, reason: ShedReason, now: float) -> None:
        self.store.shed_range(job.id, job.id + 1, reason, now)
        self.shed[reason.value] = self.shed.get(reason.value, 0) + 1

    def _place(self, job: _RefJob, now: float) -> None:
        tool = self.tools[job.tool]
        if not tool.gpu_eligible:
            self._start_cpu(job, now, degraded=False)
            return
        if (
            self._benefit
            and tool.degradable
            and tool.gpu_benefit < self.config.benefit_threshold
        ):
            # One job at a time: admit onto a GPU iff the fleet-wide
            # free count still exceeds the reserve; otherwise degrade
            # immediately (low-benefit classes never queue).
            reserve = reserve_slots(
                self.config.gpu_reserve_fraction,
                self._scan_usable_count(),
                self.config.slots_per_node,
            )
            if self._scan_free_total() > reserve:
                node = self._scan_free_node()
                assert node is not None
                self._start_gpu(job, node, now)
            else:
                self._start_cpu(job, now, degraded=True)
            return
        node = self._scan_free_node()
        if node is not None:
            self._start_gpu(job, node, now)
            return
        node = self._scan_queue_node()
        if node is not None:
            job.node = node
            self.store.queue_range(job.id, job.id + 1, node)
            self._queues[node].append(job)
            self.counts["queued"] += 1
            return
        if self.config.degrade_to_cpu and tool.degradable:
            self._start_cpu(job, now, degraded=True)
        else:
            self._shed(job, ShedReason.QUEUE_FULL, now)

    def _drain_queue(self, node: int, now: float) -> None:
        queue = self._queues[node]
        while queue and self._free[node] > 0:
            job = queue[0]
            if now > job.deadline:
                queue.popleft()
                self._shed(job, ShedReason.DEADLINE_EXPIRED, now)
                continue
            queue.popleft()
            self._start_gpu(job, node, now)

    def _complete(self, job_id: int, now: float) -> None:
        self.store.complete_range(job_id, job_id + 1, now)
        self.counts["completed"] += 1

    def _node_idle(self, node: int) -> bool:
        return not any(job.node == node for job in self._running.values())

    def _on_gpu_done(self, now: float, seq: int, node: int, job_id: int) -> None:
        job = self._running.pop(seq, None)
        if job is None:
            return  # interrupted by a node failure: tombstone
        self._complete(job_id, now)
        self._free[node] += 1
        if self._usable(node):
            self._drain_queue(node, now)
        elif self._draining[node] and self._node_idle(node):
            self._decommission(node, now)

    def _resubmit(self, job: _RefJob, now: float) -> None:
        if job.hops + 1 > self.config.max_hops:
            self.store.fail_range(job.id, job.id + 1, now)
            self.counts["failed"] += 1
            return
        job.hops += 1
        self.store.resubmit_range(job.id, job.id + 1)
        self.counts["resubmitted"] += 1
        self._place(job, now)

    def _on_fail(self, now: float, node: int, recovery_seconds: float) -> None:
        if not self._active[node]:
            return  # outage aimed at a node that isn't commissioned
        was_draining = self._draining[node]
        self._quarantined[node] = True
        self.counts["quarantines"] += 1
        interrupted = sorted(
            ((job.id, seq) for seq, job in self._running.items()
             if job.node == node),
        )
        victims = [self._running.pop(seq) for _job_id, seq in interrupted]
        self._free[node] = 0
        for job in victims:
            self._resubmit(job, now)
        queued = list(self._queues[node])
        self._queues[node].clear()
        for job in queued:
            self._resubmit(job, now)
        if was_draining:
            self._decommission(node, now)
            return
        end = now + recovery_seconds
        self._quarantine_end[node] = max(end, self._quarantine_end[node])
        heapq.heappush(
            self._events, (end, next(self._seq), _EV_RECOVER, node, 0, 0.0)
        )

    def _on_recover(self, now: float, node: int) -> None:
        if not self._quarantined[node] or now < self._quarantine_end[node]:
            return  # stale: already recovered, or a later outage still runs
        self._quarantined[node] = False
        self._free[node] = self.config.slots_per_node

    # -- elasticity ------------------------------------------------------ #
    def _decommission(self, node: int, now: float) -> None:
        self._active[node] = False
        self._draining[node] = False
        self._quarantined[node] = False
        self._free[node] = 0
        self.counts["decommissioned"] += 1
        self.meter.set_active(now, sum(self._active))

    def _on_provision(self, now: float, count: int) -> None:
        created = 0
        for node in range(self._base, self.config.nodes):
            if created == count:
                break
            if self._active[node]:
                continue
            self._active[node] = True
            self._epoch[node] += 1
            self._free[node] = self.config.slots_per_node
            created += 1
        self._pending -= count
        self.counts["provisioned"] += created
        self.meter.set_active(now, sum(self._active))

    def _on_eval(self, now: float) -> None:
        auto = self.config.autoscale
        n = self.config.nodes
        cap = self.config.slots_per_node
        shed_total = sum(self.shed.values())
        shed_delta = shed_total - self._shed_at_eval
        self._shed_at_eval = shed_total
        usable = [node for node in range(n) if self._usable(node)]
        candidates = [node for node in usable if node >= self._base]
        provisioned = (
            sum(self._active) - sum(self._draining) + self._pending
        )
        delta = self._controller.evaluate(
            now,
            queued_jobs=sum(len(q) for q in self._queues),
            shed_delta=shed_delta,
            busy_slots=len(self._running),
            usable_slots=len(usable) * cap,
            usable_nodes=len(usable),
            provisioned=provisioned,
            removable=len(candidates),
        )
        if delta > 0:
            self._pending += delta
            heapq.heappush(
                self._events,
                (now + auto.provision_lag_s, next(self._seq),
                 _EV_PROVISION, delta, 0, 0.0),
            )
        elif delta < 0:
            victims = sorted(
                candidates,
                key=lambda v: (
                    cap - self._free[v] + len(self._queues[v]), -v
                ),
            )[:-delta]
            for node in victims:
                self._draining[node] = True
            for node in victims:
                queued = list(self._queues[node])
                self._queues[node].clear()
                for job in queued:
                    self._resubmit(job, now)
                if self._node_idle(node):
                    self._decommission(node, now)
        inflight = (
            self.counts["submitted"] - self.counts["completed"]
            - sum(self.shed.values()) - self.counts["failed"]
        )
        if not self._input_done or inflight > 0 or self._pending > 0:
            heapq.heappush(
                self._events,
                (now + auto.eval_interval_s, next(self._seq), _EV_EVAL,
                 0, 0, 0.0),
            )

    # -------------------------------------------------------------------- #
    def _drain_until(self, when: float) -> None:
        events = self._events
        while events and events[0][0] <= when:
            time, seq, kind, node, job_id, extra = heapq.heappop(events)
            self._now = time
            if kind == _EV_GPU_DONE:
                self._on_gpu_done(time, seq, node, job_id)
            elif kind == _EV_CPU_DONE:
                self._complete(job_id, time)
            elif kind == _EV_FAIL:
                self._on_fail(time, node, extra)
            elif kind == _EV_RECOVER:
                self._on_recover(time, node)
            elif kind == _EV_EVAL:
                self._on_eval(time)
            else:
                self._on_provision(time, node)

    def run(self, batches: Iterable) -> JobStore:
        """Drive the reference through the same time-sorted batches."""
        deadline_seconds = self.config.deadline_seconds
        previous = -math.inf
        for batch in batches:
            check_arrival(batch, previous, len(self.tools))
            previous = batch.time
            if batch.count <= 0:
                continue
            self._drain_until(batch.time)
            self._now = max(self._now, batch.time)
            lo, hi = self.store.append_batch(
                batch.count, batch.tool, batch.time,
                batch.time + deadline_seconds,
            )
            self.counts["submitted"] += batch.count
            for job_id in range(lo, hi):
                job = _RefJob(
                    job_id, batch.tool, batch.time + deadline_seconds
                )
                self._place(job, batch.time)
        self._input_done = True
        self._drain_until(math.inf)
        self.meter.advance(self._now)
        return self.store
