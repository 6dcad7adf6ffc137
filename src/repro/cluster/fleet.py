"""The fleet-scale simulation tier: 1000 nodes, millions of jobs.

The object tier (one :class:`~repro.cluster.node.ComputeNode` under
:func:`~repro.core.orchestrator.build_deployment`) runs real
:class:`GalaxyJob` objects through a full GYAN deployment — faithful,
but ~milliseconds of Python per job, on one node.  The fleet tier is the
multi-node model: it runs the paper's mapping (Pseudocode 2: first
available GPU, else fall back) across many nodes with every per-job
cost flipped to a per-*group* cost:

* **Columnar job state** — :class:`~repro.cluster.jobstore.JobStore`
  holds one entry per row range that was transitioned together (38
  bytes a node piece) in right-sized ``array`` columns, nothing per
  job: a placed span appends its runs with one ``extend`` per column
  and completes with one write per column.
* **Batched mapping** — arrivals come from the diurnal generator as
  same-instant :class:`~repro.workloads.diurnal.ArrivalBatch` groups;
  eligibility (GPU-wanted × fleet-has-capacity) is decided once per
  batch and applied to the whole range — the object tier's
  :meth:`~repro.core.mapper.GpuComputationMapper.prepare_environment`
  decides it once per job.
* **Aggregate observability** — counters increment per group and
  latencies land via
  :meth:`~repro.observability.metrics.HistogramChild.observe_many`;
  there are no per-job spans on this path (at 1M jobs the spans *are*
  the workload).

Three mechanisms carry everything else, one of each:

* **Placement is which index you build.**  ``FleetConfig.placement``
  names a node index in :mod:`repro.cluster.placement` (``spread``: the
  paper's first-available node; ``pack``: the fullest one).  The
  simulator builds it over free GPU slots and over queue *room*, asks
  ``peek()`` for the policy's best node and calls ``touch(node)`` after
  changing its count; nothing here branches on the policy's name.
  ``benefit-aware`` is spread plus one gate
  (:meth:`FleetSimulator._place_low_benefit`).
* **One node lifecycle.**  A node is off, usable, quarantined or
  draining, and :meth:`FleetSimulator._set_state` is the only place
  that changes it — and with it the usable-node and free-slot totals
  the autoscaler and the reserve gate read.
* **Events carry their handler.**  The heap holds ``(time, seq,
  handler, args)``.  A placed span — however many nodes it covers — is
  ONE entry; its handler completes each contiguous still-live run of
  node pieces with one store write.  Interruption stays per node: a
  failure or scale-in drain tombstones only that node's share of every
  span it hosts.

Elasticity (:class:`~repro.cluster.autoscale.AutoscalerConfig`): node
indices below ``min_nodes`` are the always-on base pool; the elastic
pool grows against windowed queue-depth/shed signals (nodes arrive
warm only after the provisioning lag) and shrinks by *draining* — a
victim stops accepting work, its queue resubmits through the failure
hop path, and it decommissions (and stops costing node-seconds) when
its last running group finishes.

Resilience semantics are checked for parity against
:mod:`repro.cluster.fleet_reference`: bounded queues shed
``QUEUE_FULL``, queue TTLs shed ``DEADLINE_EXPIRED``, degradable tool
classes fall to the CPU arm before shedding, node failures quarantine
the node and resubmit its jobs with a hop cap, and recovery re-admits
the node when its *latest* outage ends.

Determinism: given the same config and arrival batches the run is
bit-identical — the property the ``fleet_core`` double-run byte-diff in
CI pins.  That includes the autoscaler: evaluations and provisioning
ride the same event heap as completions, and node-second accounting
charges at identical instants in both implementations.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass, fields
from typing import Iterable

from repro.cluster.autoscale import (
    PLACEMENT_BENEFIT,
    PLACEMENT_POLICIES,
    PLACEMENT_SPREAD,
    AutoscaleController,
    AutoscalerConfig,
    NodeSecondsMeter,
    pool_of,
    reserve_slots,
)
from repro.cluster.jobstore import (
    MAX_HOPS,
    MAX_NODES,
    MAX_TOOLS,
    NO_NODE,
    JobStore,
)
from repro.cluster.placement import NODE_INDEXES
from repro.hotpath import hot_path
from repro.observability.export import render_document
from repro.observability.metrics import CounterChild, MetricsRegistry
from repro.resilience.shedding import ShedReason
from repro.workloads.diurnal import (
    DiurnalProfile,
    FleetToolClass,
    diurnal_batches,
)

#: Node lifecycle states: exactly one per node, changed only by
#: :meth:`FleetSimulator._set_state`.  A draining node that fails goes
#: straight to off, so no node is ever both draining and quarantined.
_OFF, _USABLE, _QUARANTINED, _DRAINING = range(4)


@dataclass(frozen=True)
class NodeFailure:
    """One injected node outage: quarantine + resubmit its jobs."""

    time: float
    node: int
    recovery_seconds: float

    def __post_init__(self) -> None:
        # Both become event-heap instants; see AutoscalerConfig.
        if not math.isfinite(self.time):
            raise ValueError(f"failure time must be finite, got {self.time}")
        if not 0.0 <= self.recovery_seconds < math.inf:
            raise ValueError(
                "recovery_seconds must be non-negative and finite, "
                f"got {self.recovery_seconds}"
            )


@dataclass(frozen=True)
class FleetConfig:
    """Shape, placement, elasticity and resilience knobs of the fleet."""

    nodes: int = 1000
    gpus_per_node: int = 8
    #: Concurrent jobs per GPU (GYAN's multi-process sharing arm).
    slots_per_gpu: int = 1
    #: Bounded per-node queue depth (jobs), the PR-7 admission bound.
    queue_limit: int = 16
    #: Queue TTL: jobs still queued past submit + deadline_s shed.
    deadline_seconds: float = 3600.0
    #: Resubmit chain cap after node failures (PR-7 hop budget).
    max_hops: int = 3
    #: Whether degradable GPU classes fall to the CPU arm on overflow.
    degrade_to_cpu: bool = True
    failures: tuple[NodeFailure, ...] = ()
    #: Placement policy (see module docstring).
    placement: str = PLACEMENT_SPREAD
    #: benefit-aware: tools below this GPU-benefit ratio are low-benefit.
    benefit_threshold: float = 12.0
    #: benefit-aware: fraction of usable slots reserved for high-benefit.
    gpu_reserve_fraction: float = 0.10
    #: Elastic pool configuration (None = static fleet, PR-9 behaviour).
    autoscale: AutoscalerConfig | None = None

    @property
    def slots_per_node(self) -> int:
        return self.gpus_per_node * self.slots_per_gpu

    def __post_init__(self) -> None:
        # Upper bounds are the JobStore column widths: a shape that fits
        # here can never overflow a column write mid-run.
        if not 1 <= self.nodes <= MAX_NODES:
            raise ValueError(
                f"fleet needs between 1 and {MAX_NODES} nodes, "
                f"got {self.nodes}"
            )
        if self.gpus_per_node < 1 or self.slots_per_gpu < 1:
            raise ValueError(
                "fleet nodes need at least one GPU and one slot per GPU, "
                f"got {self.gpus_per_node} x {self.slots_per_gpu}"
            )
        if self.queue_limit < 0:
            raise ValueError(
                f"queue_limit must be non-negative, got {self.queue_limit}"
            )
        if not 0 <= self.max_hops <= MAX_HOPS:
            raise ValueError(
                f"max_hops must be in [0, {MAX_HOPS}], got {self.max_hops}"
            )
        if not 0.0 < self.deadline_seconds < math.inf:
            raise ValueError(
                "deadline_seconds must be positive and finite, "
                f"got {self.deadline_seconds}"
            )
        if self.placement not in PLACEMENT_POLICIES:
            raise ValueError(
                f"unknown placement policy {self.placement!r}; "
                f"expected one of {PLACEMENT_POLICIES}"
            )
        if not self.benefit_threshold > 0:  # also refuses NaN
            raise ValueError(
                "benefit_threshold must be positive (inf allowed), "
                f"got {self.benefit_threshold}"
            )
        if not 0.0 <= self.gpu_reserve_fraction < 1.0:
            raise ValueError("gpu_reserve_fraction must be in [0, 1)")
        if self.autoscale is not None and self.autoscale.max_nodes > self.nodes:
            raise ValueError(
                f"autoscale max_nodes {self.autoscale.max_nodes} exceeds "
                f"fleet nodes {self.nodes}"
            )
        for failure in self.failures:
            if not 0 <= failure.node < self.nodes:
                raise ValueError(
                    f"failure targets unknown node {failure.node}"
                )


@dataclass(frozen=True)
class FleetResult:
    """Deterministic summary of one fleet run.

    Every field is a pure function of (config, batches): no wall-clock,
    no iteration-order dependence — :meth:`to_json` byte-matches across
    runs, which CI's double-run diff enforces.
    """

    nodes: int
    gpus_per_node: int
    jobs_submitted: int
    mapping_decisions: int
    mapped_gpu: int
    mapped_cpu: int
    degraded: int
    queued: int
    completed: int
    resubmitted: int
    failed: int
    quarantines: int
    shed: dict[str, int]
    states: dict[str, int]
    end_time: float
    store_digest: str
    placement: str = PLACEMENT_SPREAD
    pool_base_nodes: int = 0
    pool_max_nodes: int = 0
    peak_nodes: int = 0
    node_seconds: float = 0.0
    scale_ups: int = 0
    scale_downs: int = 0
    provisioned_nodes: int = 0
    decommissioned_nodes: int = 0
    #: (instant, commissioned, pending) samples, one per evaluation.
    pool_timeline: tuple[tuple[float, int, int], ...] = ()

    def to_dict(self) -> dict:
        """The ``gyan.fleet/v1`` payload (also embedded per policy in
        ``repro fleet --ab``'s ``gyan.fleet-ab/v1``)."""
        payload = {"schema": "gyan.fleet/v1"}
        # Field order is payload order; the three fleet goldens pin it.
        for spec in fields(self):
            payload[spec.name] = getattr(self, spec.name)
        payload["shed"] = dict(sorted(self.shed.items()))
        payload["states"] = dict(sorted(self.states.items()))
        payload["end_time"] = round(self.end_time, 6)
        payload["node_seconds"] = round(self.node_seconds, 6)
        payload["pool_timeline"] = [
            [round(t, 6), active, pending]
            for t, active, pending in self.pool_timeline
        ]
        return payload

    def to_json(self) -> str:
        return render_document(self.to_dict())


class FleetSimulator:
    """Batch-driven event-loop over the columnar job store.

    Feed it time-sorted :class:`ArrivalBatch` groups (usually from
    :func:`~repro.workloads.diurnal.diurnal_batches`) via :meth:`run`.
    All state transitions happen on contiguous [lo, hi) row ranges of
    one :class:`JobStore`; see the module docstring for the semantics.
    """

    def __init__(
        self,
        config: FleetConfig,
        tools: tuple[FleetToolClass, ...],
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if len(tools) > MAX_TOOLS:
            raise ValueError(
                f"tool table holds at most {MAX_TOOLS} classes, "
                f"got {len(tools)}"
            )
        self.config = config
        self.tools = tools
        self.store = JobStore()
        n = config.nodes
        cap = config.slots_per_node
        auto = config.autoscale
        self._cap = cap
        self._benefit = config.placement == PLACEMENT_BENEFIT
        #: Pool boundary: node < _base is the always-on base pool.
        self._base = auto.min_nodes if auto is not None else n
        start_nodes = auto.start_nodes if auto is not None else n
        # -- per-node shards -------------------------------------------- #
        self._state = [_USABLE if i < start_nodes else _OFF for i in range(n)]
        #: ``_state[i] == _USABLE``, as the flag list the indexes share.
        self._usable = [state == _USABLE for state in self._state]
        #: When a quarantined node's latest outage ends.
        self._quarantine_end = [0.0] * n
        self._epoch = [1 if i < start_nodes else 0 for i in range(n)]
        #: Free GPU slots; meaningful only while the node is usable.
        self._free = [cap if i < start_nodes else 0 for i in range(n)]
        #: Queue room: ``queue_limit`` minus the jobs queued on the node.
        self._room = [config.queue_limit] * n
        #: Per node: FIFO of queued (lo, hi, tool, deadline) groups.
        self._queues: list[deque[tuple[int, int, int, float]]] = [
            deque() for _ in range(n)
        ]
        #: Per node: span id → (lo, hi, tool) of its in-flight piece (a
        #: node holds at most one piece of a span).  Popping an entry
        #: tombstones that piece of the span's completion event.
        self._live: list[dict[int, tuple[int, int, int]]] = [
            {} for _ in range(n)
        ]
        # -- the placement seam: the policy's index, once per resource -- #
        index_class = NODE_INDEXES[config.placement]
        self._slots = index_class(self._free, self._usable)
        self._rooms = index_class(self._room, self._usable)
        # -- aggregate fleet state (the autoscaler's signal inputs) ----- #
        self._active_count = start_nodes
        self._draining_count = 0
        self._usable_count = start_nodes
        self._free_total = start_nodes * cap
        self._busy = 0
        self._queued_now = 0
        self._pending_nodes = 0
        self._submitted_n = 0
        self._completed_n = 0
        self._shed_n = 0
        self._failed_n = 0
        self._shed_at_eval = 0
        self._input_done = False
        self._scale_ups = 0
        self._scale_downs = 0
        self._provisioned_nodes = 0
        self._decommissioned_nodes = 0
        self._peak_nodes = start_nodes
        self._meter = NodeSecondsMeter(start_nodes)
        self._pool_timeline: list[tuple[float, int, int]] = [
            (0.0, start_nodes, 0)
        ]
        self._controller = (
            AutoscaleController(auto) if auto is not None else None
        )
        # -- global event heap: (time, seq, handler, args) --------------- #
        self._events: list[tuple] = []
        self._seq = itertools.count()
        self._now = 0.0
        for failure in config.failures:
            self._at(failure.time, self._on_fail, failure.node,
                     failure.recovery_seconds)
        if auto is not None:
            self._at(auto.eval_interval_s, self._on_eval)
        # -- aggregate observability ------------------------------------ #
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._c_submitted = self.metrics.counter(
            "gyan_fleet_jobs_submitted_total",
            "Jobs appended to the fleet job store",
        )
        self._c_mapped = self.metrics.counter(
            "gyan_fleet_mapping_decisions_total",
            "Batched mapping decisions by arm",
            labels=("arm",),
        )
        self._mapped_children: dict[str, CounterChild] = {}
        self._c_queued = self.metrics.counter(
            "gyan_fleet_jobs_queued_total",
            "Jobs that waited in a bounded per-node queue",
        )
        self._c_completed = self.metrics.counter(
            "gyan_fleet_jobs_completed_total",
            "Jobs that finished either arm",
        )
        self._c_shed = self.metrics.counter(
            "gyan_fleet_jobs_shed_total",
            "Jobs refused by the overload layer, by reason",
            labels=("reason",),
        )
        self._c_degraded = self.metrics.counter(
            "gyan_fleet_jobs_degraded_total",
            "GPU-eligible jobs degraded to the CPU arm on overflow",
        )
        self._c_resubmitted = self.metrics.counter(
            "gyan_fleet_jobs_resubmitted_total",
            "Jobs re-entered after a node failure (hop chain)",
        )
        self._c_failed = self.metrics.counter(
            "gyan_fleet_jobs_failed_total",
            "Jobs whose resubmit chain exhausted the hop budget",
        )
        self._c_quarantines = self.metrics.counter(
            "gyan_fleet_node_quarantines_total",
            "Node failure events that quarantined a node",
        )
        self._h_latency = self.metrics.histogram(
            "gyan_fleet_job_latency_seconds",
            "Submit→finish latency of completed jobs (group-aggregated)",
            buckets=(60.0, 300.0, 900.0, 3600.0, 14400.0, 86400.0,
                     float("inf")),
        )
        # Elasticity metrics exist only on elastic fleets: the fleet
        # metric surface stays aggregate-only and static runs keep
        # their PR-9 family count.
        if auto is not None:
            self._g_pool = self.metrics.gauge(
                "gyan_fleet_pool_nodes",
                "Commissioned/pending node counts per pool",
                labels=("pool",),
            )
            self._c_scale_events = self.metrics.counter(
                "gyan_fleet_scale_events_total",
                "Autoscaler actions by direction",
                labels=("direction",),
            )
            self._c_pool_events = self.metrics.counter(
                "gyan_fleet_pool_node_events_total",
                "Node lifecycle events in the elastic pool",
                labels=("event",),
            )
            self._c_node_seconds = self.metrics.counter(
                "gyan_fleet_node_seconds_total",
                "Node-seconds of commissioned capacity (cost proxy)",
            )
            self._set_pool_gauges()

    # ------------------------------------------------------------------ #
    # the event heap and the node lifecycle
    # ------------------------------------------------------------------ #
    @hot_path
    def _at(self, when: float, handler, *args) -> None:
        """Schedule ``handler(when, *args)``.  ``(when, seq)`` is the whole
        ordering key: same-instant events run in the order pushed."""
        heapq.heappush(self._events, (when, next(self._seq), handler, args))

    def _set_state(self, node: int, state: int) -> None:
        """Move ``node`` to lifecycle ``state``, and with it every total
        derived from node states.  A node leaves service with whatever
        it had free and enters it empty, at full capacity, indexed."""
        old = self._state[node]
        self._state[node] = state
        self._active_count += (old == _OFF) - (state == _OFF)
        self._draining_count += (state == _DRAINING) - (old == _DRAINING)
        if old == _USABLE:
            self._usable[node] = False
            self._usable_count -= 1
            self._free_total -= self._free[node]
        elif state == _USABLE:
            self._usable[node] = True
            self._usable_count += 1
            self._free[node] = self._cap
            self._free_total += self._cap
            self._slots.touch(node)
            self._rooms.touch(node)

    # ------------------------------------------------------------------ #
    # group starts
    # ------------------------------------------------------------------ #
    def _count_mapped(self, arm: str, count: int) -> None:
        """Bound on first use: an arm that never fires emits no series."""
        child = self._mapped_children.get(arm)
        if child is None:
            child = self._mapped_children[arm] = self._c_mapped.labels(arm=arm)
        child.inc(count)

    def _claim(
        self, seq: int, node: int, lo: int, hi: int, tool_index: int
    ) -> tuple[int, int, int, int]:
        """One node's share of span ``seq``: slots, interrupt index, piece."""
        self._free[node] -= hi - lo
        self._live[node][seq] = (lo, hi, tool_index)
        return hi, node, pool_of(node, self._base), self._epoch[node]

    def _launch(
        self, seq: int, lo: int, tool_index: int, now: float, pieces: list
    ) -> None:
        """Start the claimed ``pieces`` of span ``seq`` at span cost: one
        store write per shared column, one completion event, one count."""
        count = pieces[-1][0] - lo
        self.store.start_span(lo, now, pieces)
        self._at(now + self.tools[tool_index].gpu_seconds,
                 self._on_span_done, seq, lo, pieces)
        self._free_total -= count
        self._busy += count
        self._count_mapped("gpu", count)

    @hot_path
    def _fill_gpu(
        self, lo: int, hi: int, tool_index: int, now: float
    ) -> int:
        """Start rows from ``lo`` on free slots; returns the first unplaced.

        Peels pieces off the front, filling the policy's best node to
        capacity before moving on.  Per piece only the node's own
        bookkeeping happens; the rest is settled once for the placed
        span (:meth:`_launch`).
        """
        seq = next(self._seq)
        pieces = []
        cursor = lo
        while cursor < hi:
            node = self._slots.peek()
            if node is None:
                break
            stop = cursor + min(hi - cursor, self._free[node])
            pieces.append(self._claim(seq, node, cursor, stop, tool_index))
            cursor = stop
        if pieces:
            # Every node but the last was filled to exhaustion, which an
            # index finds out for itself.
            if node is not None and self._free[node]:
                self._slots.touch(node)
            self._launch(seq, lo, tool_index, now, pieces)
        return cursor

    def _start_cpu(
        self, lo: int, hi: int, tool_index: int, now: float, degraded: bool
    ) -> None:
        count = hi - lo
        self.store.start_range(lo, hi, NO_NODE, now, gpu=False)
        self._at(now + self.tools[tool_index].cpu_seconds,
                 self._on_range_done, lo, hi)
        self._count_mapped("cpu", count)
        if degraded:
            self._c_degraded.inc(count)

    def _shed_group(
        self, lo: int, hi: int, reason: ShedReason, now: float
    ) -> None:
        self.store.shed_range(lo, hi, reason, now)
        self._shed_n += hi - lo
        self._c_shed.labels(reason=reason.value).inc(hi - lo)

    # ------------------------------------------------------------------ #
    # batched mapping (vectorised Pseudocode 2 over the columnar batch)
    # ------------------------------------------------------------------ #
    @hot_path
    def _place_range(
        self, lo: int, hi: int, tool_index: int, now: float
    ) -> None:
        """Map one same-instant, same-class row range.

        The eligibility decision (Pseudocode 2: does the tool want a GPU
        and does the fleet have one?) happens once for the whole range;
        placement peels contiguous sub-ranges off the front, filling the
        policy's best node to capacity before moving on — identical,
        job for job, to the per-job-object reference model.
        """
        tool = self.tools[tool_index]
        if not tool.gpu_eligible:
            self._start_cpu(lo, hi, tool_index, now, degraded=False)
            return
        if (
            self._benefit
            and tool.degradable
            and tool.gpu_benefit < self.config.benefit_threshold
        ):
            self._place_low_benefit(lo, hi, tool_index, now)
            return
        cursor = self._fill_gpu(lo, hi, tool_index, now)
        if cursor == hi:
            return
        _tool, _submit, deadline = self.store.arrival(cursor)
        while cursor < hi:
            node = self._rooms.peek()
            if node is None:
                break
            take = min(hi - cursor, self._room[node])
            self.store.queue_range(
                cursor, cursor + take, node, pool=pool_of(node, self._base)
            )
            self._queues[node].append(
                (cursor, cursor + take, tool_index, deadline)
            )
            self._room[node] -= take
            self._queued_now += take
            self._c_queued.inc(take)
            if self._room[node]:
                self._rooms.touch(node)
            cursor += take
        if cursor < hi:
            if self.config.degrade_to_cpu and tool.degradable:
                self._start_cpu(cursor, hi, tool_index, now, degraded=True)
            else:
                self._shed_group(cursor, hi, ShedReason.QUEUE_FULL, now)

    def _place_low_benefit(
        self, lo: int, hi: int, tool_index: int, now: float
    ) -> None:
        """benefit-aware placement for a low-benefit degradable class.

        The class may only consume free slots *above* the reserve —
        ``free_total - reserve`` across the whole fleet — and never
        queues: the remainder degrades to the CPU arm immediately,
        leaving reserved slots and all queue room to high-benefit
        tools.  Equivalent, job for job, to admitting each job iff the
        fleet-wide free count still exceeds the reserve.
        """
        reserve = reserve_slots(
            self.config.gpu_reserve_fraction, self._usable_count, self._cap
        )
        avail = self._free_total - reserve
        take_total = min(hi - lo, avail) if avail > 0 else 0
        cursor = self._fill_gpu(lo, lo + take_total, tool_index, now)
        if cursor < hi:
            self._start_cpu(cursor, hi, tool_index, now, degraded=True)

    # ------------------------------------------------------------------ #
    # event handlers
    # ------------------------------------------------------------------ #
    def _on_range_done(self, now: float, lo: int, hi: int) -> None:
        """A CPU group's completion event, and each live run of a span's."""
        count = hi - lo
        self.store.complete_range(lo, hi, now)
        self._completed_n += count
        self._c_completed.inc(count)
        _tool, submit, _deadline = self.store.arrival(lo)
        self._h_latency.observe_many(now - submit, count)

    @hot_path
    def _drain_queue(self, node: int, now: float) -> None:
        """Start queued groups on freed slots, shedding expired ones.
        The caller re-indexes the node's slots; this, its queue room."""
        queue = self._queues[node]
        room = self._room[node]
        while queue and self._free[node] > 0:
            glo, ghi, gtool, deadline = queue[0]
            if now > deadline:
                queue.popleft()
                self._room[node] += ghi - glo
                self._queued_now -= ghi - glo
                self._shed_group(glo, ghi, ShedReason.DEADLINE_EXPIRED, now)
                continue
            take = min(self._free[node], ghi - glo)
            if take == ghi - glo:
                queue.popleft()
            else:
                queue[0] = (glo + take, ghi, gtool, deadline)
            self._room[node] += take
            self._queued_now -= take
            # A queue-drain start is a one-piece span on this node.
            seq = next(self._seq)
            self._launch(
                seq, glo, gtool, now,
                [self._claim(seq, node, glo, glo + take, gtool)],
            )
        if self._room[node] != room:
            self._rooms.touch(node)

    @hot_path
    def _on_span_done(
        self, now: float, seq: int, lo: int, pieces: list
    ) -> None:
        """Complete span ``seq``: one store write per still-live run of
        pieces, then each live node's bookkeeping in piece order.

        A piece whose node failed or was drained since the start is a
        tombstone (its ``_live`` entry is gone, its rows were
        resubmitted) and splits the span into separate runs.
        """
        live = self._live
        freed = []
        run_lo = lo
        for stop, node, _pool, _epoch in pieces:
            if live[node].pop(seq, None) is None:
                if run_lo < lo:
                    self._on_range_done(now, run_lo, lo)
                run_lo = stop
            else:
                freed.append((node, stop - lo))
            lo = stop
        if run_lo < lo:
            self._on_range_done(now, run_lo, lo)
        for node, count in freed:
            self._busy -= count
            if self._usable[node]:
                self._free[node] += count
                self._free_total += count
                if self._queues[node]:
                    self._drain_queue(node, now)
                self._slots.touch(node)
            elif self._state[node] == _DRAINING and not live[node]:
                self._decommission(node, now)

    def _resubmit(self, lo: int, hi: int, tool_index: int, now: float) -> None:
        count = hi - lo
        if self.store.row(lo).hops + 1 > self.config.max_hops:
            self.store.fail_range(lo, hi, now)
            self._failed_n += count
            self._c_failed.inc(count)
            return
        self.store.resubmit_range(lo, hi)
        self._c_resubmitted.inc(count)
        self._place_range(lo, hi, tool_index, now)

    def _evict_queue(self, node: int, now: float) -> None:
        """Flush a node that left service: its queued groups resubmit in
        FIFO order — one more hop each, failing past the hop budget."""
        queued = list(self._queues[node])
        self._queues[node].clear()
        self._queued_now -= self.config.queue_limit - self._room[node]
        self._room[node] = self.config.queue_limit
        for lo, hi, tool_index, _deadline in queued:
            self._resubmit(lo, hi, tool_index, now)

    def _on_fail(self, now: float, node: int, recovery_seconds: float) -> None:
        state = self._state[node]
        if state == _OFF:
            return  # outage aimed at a node that isn't commissioned
        self._c_quarantines.inc()
        if state != _DRAINING:
            self._set_state(node, _QUARANTINED)
        # Interrupt running groups in ascending row order (== ascending
        # job-id order, the reference model's iteration order), then the
        # queued ones.
        groups = sorted(self._live[node].values())
        self._live[node].clear()
        self._busy -= sum(ghi - glo for glo, ghi, _tool in groups)
        for lo, hi, tool_index in groups:
            self._resubmit(lo, hi, tool_index, now)
        self._evict_queue(node, now)
        if state == _DRAINING:
            # A draining node that dies never comes back: its work has
            # already been resubmitted, so it decommissions right here.
            self._decommission(node, now)
            return
        # Overlapping outages: the quarantine lasts until the latest end,
        # and a recovery that arrives before it is the stale one.
        end = now + recovery_seconds
        self._quarantine_end[node] = max(end, self._quarantine_end[node])
        self._at(end, self._on_recover, node)

    def _on_recover(self, now: float, node: int) -> None:
        if (
            self._state[node] == _QUARANTINED
            and now >= self._quarantine_end[node]
        ):
            self._set_state(node, _USABLE)

    # ------------------------------------------------------------------ #
    # elasticity
    # ------------------------------------------------------------------ #
    def _decommission(self, node: int, now: float) -> None:
        """Retire a drained node: it stops costing from this instant."""
        self._set_state(node, _OFF)
        self._decommissioned_nodes += 1
        self._meter.set_active(now, self._active_count)
        self._c_pool_events.labels(event="decommissioned").inc()

    def _apply_scale_up(self, delta: int, now: float) -> None:
        self._pending_nodes += delta
        self._scale_ups += 1
        self._at(now + self.config.autoscale.provision_lag_s,
                 self._on_provision, delta)
        self._c_scale_events.labels(direction="up").inc()

    def _apply_scale_down(
        self, count: int, candidates: list[int], now: float
    ) -> None:
        """Drain the most drainable elastic nodes (least load — running
        plus queued, i.e. most free slots plus queue room — then highest
        index so the pool retracts from the top)."""
        victims = sorted(
            candidates,
            key=lambda v: (-self._free[v] - self._room[v], -v),
        )[:count]
        self._scale_downs += 1
        self._c_scale_events.labels(direction="down").inc()
        # Every victim leaves service before any queue is flushed, so no
        # evicted job lands on another victim.
        for node in victims:
            self._set_state(node, _DRAINING)
        for node in victims:
            self._evict_queue(node, now)
            if not self._live[node]:
                self._decommission(node, now)

    def _on_provision(self, now: float, count: int) -> None:
        """Commission ordered nodes, lag later, lowest free index first.

        If drains have not yet released enough chassis slots the
        surplus of the order is cancelled on arrival; the controller
        re-orders at a later evaluation if the pressure persists.
        """
        created = 0
        for node in range(self._base, self.config.nodes):
            if created == count:
                break
            if self._state[node] != _OFF:
                continue
            self._epoch[node] += 1
            self._set_state(node, _USABLE)
            created += 1
        self._pending_nodes -= count
        self._provisioned_nodes += created
        self._meter.set_active(now, self._active_count)
        if self._active_count > self._peak_nodes:
            self._peak_nodes = self._active_count
        if created:
            self._c_pool_events.labels(event="provisioned").inc(created)

    @hot_path
    def _on_eval(self, now: float) -> None:
        auto = self.config.autoscale
        shed_delta = self._shed_n - self._shed_at_eval
        self._shed_at_eval = self._shed_n
        candidates = [
            i for i in range(self._base, self.config.nodes) if self._usable[i]
        ]
        provisioned = (
            self._active_count - self._draining_count + self._pending_nodes
        )
        delta = self._controller.evaluate(
            now,
            queued_jobs=self._queued_now,
            shed_delta=shed_delta,
            busy_slots=self._busy,
            usable_slots=self._usable_count * self._cap,
            usable_nodes=self._usable_count,
            provisioned=provisioned,
            removable=len(candidates),
        )
        if delta > 0:
            self._apply_scale_up(delta, now)
        elif delta < 0:
            self._apply_scale_down(-delta, candidates, now)
        self._pool_timeline.append(
            (now, self._active_count, self._pending_nodes)
        )
        self._set_pool_gauges()
        inflight = (
            self._submitted_n - self._completed_n
            - self._shed_n - self._failed_n
        )
        if not self._input_done or inflight > 0 or self._pending_nodes > 0:
            self._at(now + auto.eval_interval_s, self._on_eval)

    def _set_pool_gauges(self) -> None:
        base_active = min(self._base, self._active_count)
        self._g_pool.labels(pool="base").set(base_active)
        self._g_pool.labels(pool="elastic").set(
            self._active_count - base_active
        )
        self._g_pool.labels(pool="pending").set(self._pending_nodes)

    # ------------------------------------------------------------------ #
    def _drain_until(self, when: float) -> None:
        events = self._events
        while events and events[0][0] <= when:
            time, _seq, handler, args = heapq.heappop(events)
            self._now = time
            handler(time, *args)

    # ------------------------------------------------------------------ #
    @hot_path
    def run(self, batches: Iterable) -> FleetResult:
        """Drive the fleet through time-sorted arrival batches."""
        for batch in batches:
            if batch.count <= 0:
                continue
            self._drain_until(batch.time)
            self._now = max(self._now, batch.time)
            lo, hi = self.store.append_batch(
                batch.count, batch.tool, batch.time,
                batch.time + self.config.deadline_seconds,
            )
            self._submitted_n += batch.count
            self._c_submitted.inc(batch.count)
            self._place_range(lo, hi, batch.tool, batch.time)
        self._input_done = True
        self._drain_until(math.inf)
        self._meter.advance(self._now)
        return self._result()

    def _result(self) -> FleetResult:
        value = self.metrics.value
        shed = {
            reason.value: int(
                value("gyan_fleet_jobs_shed_total", reason=reason.value)
            )
            for reason in ShedReason
            if value("gyan_fleet_jobs_shed_total", reason=reason.value)
        }
        # Overload ledger identity (the storm drill's invariant, fleet
        # scale): every submitted job ends exactly one way.
        if self._submitted_n != (
            self._completed_n + self._shed_n + self._failed_n
        ):
            raise RuntimeError(
                "fleet ledger out of balance: "
                f"{self._submitted_n} submitted != "
                f"{self._completed_n} completed + "
                f"{self._shed_n} shed + {self._failed_n} failed"
            )
        mapped_gpu = int(value("gyan_fleet_mapping_decisions_total", arm="gpu"))
        mapped_cpu = int(value("gyan_fleet_mapping_decisions_total", arm="cpu"))
        auto = self.config.autoscale
        if auto is not None:
            self._c_node_seconds.inc(self._meter.total)
            self._set_pool_gauges()
        return FleetResult(
            nodes=self.config.nodes,
            gpus_per_node=self.config.gpus_per_node,
            jobs_submitted=self._submitted_n,
            mapping_decisions=mapped_gpu + mapped_cpu,
            mapped_gpu=mapped_gpu,
            mapped_cpu=mapped_cpu,
            degraded=int(value("gyan_fleet_jobs_degraded_total")),
            queued=int(value("gyan_fleet_jobs_queued_total")),
            completed=self._completed_n,
            resubmitted=int(value("gyan_fleet_jobs_resubmitted_total")),
            failed=self._failed_n,
            quarantines=int(value("gyan_fleet_node_quarantines_total")),
            shed=shed,
            states=self.store.count_by_state(),
            end_time=self._now,
            store_digest=self.store.digest(),
            placement=self.config.placement,
            pool_base_nodes=self._base,
            pool_max_nodes=(
                auto.max_nodes if auto is not None else self.config.nodes
            ),
            peak_nodes=self._peak_nodes,
            node_seconds=self._meter.total,
            scale_ups=self._scale_ups,
            scale_downs=self._scale_downs,
            provisioned_nodes=self._provisioned_nodes,
            decommissioned_nodes=self._decommissioned_nodes,
            pool_timeline=tuple(self._pool_timeline),
        )


def run_fleet(
    config: FleetConfig,
    profile: DiurnalProfile,
    metrics: MetricsRegistry | None = None,
) -> FleetResult:
    """Generate the diurnal workload and run it through the fleet."""
    simulator = FleetSimulator(config, profile.tools, metrics=metrics)
    return simulator.run(diurnal_batches(profile))


#: The canonical A/B fleet shape: paired with
#: :func:`~repro.workloads.diurnal.ab_storm_profile`, this sizes GPU
#: demand so the midday storm moderately exceeds capacity with the
#: low-benefit class as the marginal load — the regime where placement
#: policies actually diverge.  The CLI's ``repro fleet --ab``, the
#: ``fleet_core`` policy scenarios, the differential policy tests and
#: CI's A/B matrix all run exactly this shape so their numbers agree.
AB_FLEET_NODES = 40
AB_FLEET_GPUS_PER_NODE = 8
AB_FLEET_QUEUE_LIMIT = 16
AB_FLEET_JOBS = 40_000
AB_FLEET_SEED = 7


def ab_fleet_config(
    placement: str = PLACEMENT_SPREAD,
    autoscale: AutoscalerConfig | None = None,
) -> FleetConfig:
    """The canonical A/B :class:`FleetConfig` for one placement policy."""
    return FleetConfig(
        nodes=AB_FLEET_NODES,
        gpus_per_node=AB_FLEET_GPUS_PER_NODE,
        queue_limit=AB_FLEET_QUEUE_LIMIT,
        placement=placement,
        autoscale=autoscale,
    )
