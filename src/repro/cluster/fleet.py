"""The fleet-scale simulation tier: 1000 nodes, millions of jobs.

This is ROADMAP item 1 made concrete.  The object-path cluster
(:mod:`repro.cluster.multinode`) routes real :class:`GalaxyJob` objects
through full GYAN deployments — faithful, but ~milliseconds of Python
per job.  At 1M jobs the fleet tier flips every per-job cost to a
per-*group* cost:

* **Columnar job state** — :class:`~repro.cluster.jobstore.JobStore`
  holds one entry per row range that was transitioned together (38
  bytes a node piece) in right-sized ``array`` columns, nothing per
  job: a placed span appends its runs with one ``extend`` per column
  and completes with one write per column.
* **Batched mapping** — arrivals come from the diurnal generator as
  same-instant :class:`~repro.workloads.diurnal.ArrivalBatch` groups;
  Pseudocode-2 eligibility (GPU-wanted × fleet-has-capacity) is decided
  once per batch and applied to the whole range — the object tier's
  :meth:`~repro.core.mapper.GpuComputationMapper.prepare_environment`
  decides it once per job.
* **Sharded node state with indexed selection** — per-node shards hold
  free GPU slots and the bounded queue; selection pops the policy's
  best node from a lazy heap in O(log n) instead of scanning 1000
  nodes per job.  A placed span — however many nodes it covers — is
  ONE ``_EV_GPU_DONE`` entry in the global event heap; its handler
  completes each contiguous still-live run of node pieces with one
  store write.  Interruption stays per node: a failure or scale-in
  drain tombstones only that node's share of every span it hosts.
* **Aggregate observability** — counters increment per group and
  latencies land via
  :meth:`~repro.observability.metrics.HistogramChild.observe_many`;
  there are no per-job spans on this path (at 1M jobs the spans *are*
  the workload).

Placement policies (:data:`~repro.cluster.autoscale.PLACEMENT_POLICIES`):

* ``spread`` — the lowest-indexed node with a free slot (the paper's
  first-available rule, PR-9 behaviour).
* ``pack`` — the node with the *fewest* free slots (ties to the lowest
  index), bin-packing work so idle nodes stay fully drainable for
  scale-in; queueing likewise prefers the fullest queue with room.
* ``benefit-aware`` — the paper's GPU-benefit classes decide who may
  claim scarce slots: low-benefit degradable classes only use capacity
  above a configured reserve and degrade to the CPU arm instead of
  queueing, leaving reserved slots (and the queues) to high-benefit
  tools like basecallers.

Elasticity (:class:`~repro.cluster.autoscale.AutoscalerConfig`): node
indices below ``min_nodes`` are the always-on base pool; the elastic
pool grows against windowed queue-depth/shed signals (nodes arrive
warm only after the provisioning lag) and shrinks by *draining* — a
victim stops accepting work, its queue resubmits through the PR-7
failure hop path, and it decommissions (and stops costing
node-seconds) when its last running group finishes.

Resilience semantics from PR 7 are preserved on the columnar path and
checked for parity against :mod:`repro.cluster.fleet_reference`:
bounded queues shed ``QUEUE_FULL``, queue TTLs shed
``DEADLINE_EXPIRED``, degradable tool classes fall to the CPU arm
before shedding, node failures quarantine the node and resubmit its
jobs with a hop cap, and recovery re-admits the node.

Determinism: given the same config and arrival batches the run is
bit-identical — the property the ``fleet_core`` double-run byte-diff in
CI pins.  That now includes the autoscaler: evaluations and
provisioning ride the same (time, seq) event heap as completions, and
node-second accounting charges at identical instants in both
implementations.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable

from repro.cluster.autoscale import (
    PLACEMENT_BENEFIT,
    PLACEMENT_PACK,
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
from repro.hotpath import hot_path
from repro.observability.export import render_document
from repro.observability.metrics import CounterChild, MetricsRegistry
from repro.resilience.shedding import ShedReason
from repro.workloads.diurnal import (
    DiurnalProfile,
    FleetToolClass,
    diurnal_batches,
)

#: Event kinds in the global head heap (time, seq, kind, ...).
_EV_GPU_DONE = 0
_EV_CPU_DONE = 1
_EV_FAIL = 2
_EV_RECOVER = 3
_EV_EVAL = 4
_EV_PROVISION = 5


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
        if self.slots_per_node < 1:
            raise ValueError("fleet nodes need at least one GPU slot")
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
        if self.benefit_threshold <= 0:
            raise ValueError("benefit_threshold must be positive")
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
    pool_timeline: tuple[tuple[float, int, int], ...] = field(
        default_factory=tuple
    )

    def to_dict(self) -> dict:
        """The ``gyan.fleet/v1`` payload (also embedded per policy in
        ``repro fleet --ab``'s ``gyan.fleet-ab/v1``)."""
        return {
            "schema": "gyan.fleet/v1",
            "nodes": self.nodes,
            "gpus_per_node": self.gpus_per_node,
            "jobs_submitted": self.jobs_submitted,
            "mapping_decisions": self.mapping_decisions,
            "mapped_gpu": self.mapped_gpu,
            "mapped_cpu": self.mapped_cpu,
            "degraded": self.degraded,
            "queued": self.queued,
            "completed": self.completed,
            "resubmitted": self.resubmitted,
            "failed": self.failed,
            "quarantines": self.quarantines,
            "shed": dict(sorted(self.shed.items())),
            "states": dict(sorted(self.states.items())),
            "end_time": round(self.end_time, 6),
            "store_digest": self.store_digest,
            "placement": self.placement,
            "pool_base_nodes": self.pool_base_nodes,
            "pool_max_nodes": self.pool_max_nodes,
            "peak_nodes": self.peak_nodes,
            "node_seconds": round(self.node_seconds, 6),
            "scale_ups": self.scale_ups,
            "scale_downs": self.scale_downs,
            "provisioned_nodes": self.provisioned_nodes,
            "decommissioned_nodes": self.decommissioned_nodes,
            "pool_timeline": [
                [round(t, 6), active, pending]
                for t, active, pending in self.pool_timeline
            ],
        }

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
        self._pack = config.placement == PLACEMENT_PACK
        self._benefit = config.placement == PLACEMENT_BENEFIT
        #: Pool boundary: node < _base is the always-on base pool.
        self._base = auto.min_nodes if auto is not None else n
        start_nodes = auto.start_nodes if auto is not None else n
        # -- per-node shards -------------------------------------------- #
        self._active = [i < start_nodes for i in range(n)]
        self._draining = [False] * n
        self._epoch = [1 if i < start_nodes else 0 for i in range(n)]
        self._free = [cap if i < start_nodes else 0 for i in range(n)]
        self._depth = [0] * n
        #: Per node: FIFO of queued (lo, hi, tool, deadline) groups.
        self._queues: list[deque[tuple[int, int, int, float]]] = [
            deque() for _ in range(n)
        ]
        self._quarantined = [False] * n
        #: active, not draining, not quarantined (moves with _usable_count).
        self._usable = [i < start_nodes for i in range(n)]
        #: Per node: span seq → (lo, hi, tool) of its in-flight piece (a
        #: node holds at most one piece of a span).  Popping an entry
        #: tombstones that piece of the span's completion event.
        self._live: list[dict[int, tuple[int, int, int]]] = [
            {} for _ in range(n)
        ]
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
        # -- indexed node selection (lazy heaps) ------------------------ #
        # spread/benefit key entries by node index with membership flags;
        # pack keys them by (free, node) / (room, node) and invalidates
        # by value mismatch, so every count change pushes a fresh entry.
        if self._pack:
            self._slot_heap: list = [(cap, i) for i in range(start_nodes)]
            self._queue_heap: list = (
                [(config.queue_limit, i) for i in range(start_nodes)]
                if config.queue_limit > 0 else []
            )
            self._in_slot_heap = [False] * n
            self._in_queue_heap = [False] * n
        else:
            self._slot_heap = list(range(start_nodes))
            self._in_slot_heap = [i < start_nodes for i in range(n)]
            self._queue_heap = list(range(start_nodes))
            self._in_queue_heap = [i < start_nodes for i in range(n)]
        # -- global event heap: (time, seq, kind, node, lo, hi, extra) --- #
        # (time, seq) is unique, so ``extra`` — recovery seconds, a tool
        # index or a GPU span's piece list — is never compared.
        self._events: list[tuple] = []
        self._seq = itertools.count()
        self._now = 0.0
        for failure in config.failures:
            heapq.heappush(
                self._events,
                (failure.time, next(self._seq), _EV_FAIL, failure.node,
                 0, 0, failure.recovery_seconds),
            )
        if auto is not None:
            heapq.heappush(
                self._events,
                (auto.eval_interval_s, next(self._seq), _EV_EVAL,
                 0, 0, 0, 0.0),
            )
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
    # indexed node selection
    # ------------------------------------------------------------------ #
    def _peek_free_node(self) -> int | None:
        """The policy's best node with a free GPU slot, O(log n).

        spread/benefit-aware: lowest index; pack: fewest free slots
        (ties to the lowest index).  Stale entries — quarantined,
        drained, decommissioned, exhausted, or (pack) out-of-date
        counts — pop-discard lazily.
        """
        heap = self._slot_heap
        if self._pack:
            while heap:
                free, node = heap[0]
                if not self._usable[node] or self._free[node] != free:
                    heapq.heappop(heap)
                    continue
                return node
            return None
        while heap:
            node = heap[0]
            if not self._usable[node] or self._free[node] <= 0:
                heapq.heappop(heap)
                self._in_slot_heap[node] = False
                continue
            return node
        return None

    def _peek_queue_node(self) -> int | None:
        """The policy's best node with queue room, O(log n)."""
        heap = self._queue_heap
        limit = self.config.queue_limit
        if self._pack:
            while heap:
                room, node = heap[0]
                if (
                    not self._usable[node]
                    or limit - self._depth[node] != room
                ):
                    heapq.heappop(heap)
                    continue
                return node
            return None
        while heap:
            node = heap[0]
            if not self._usable[node] or self._depth[node] >= limit:
                heapq.heappop(heap)
                self._in_queue_heap[node] = False
                continue
            return node
        return None

    def _touch_node(self, node: int) -> None:
        """Refresh the selection heaps after this node's counts changed."""
        if not self._usable[node]:
            return
        if self._pack:
            free = self._free[node]
            if free > 0:
                heapq.heappush(self._slot_heap, (free, node))
            room = self.config.queue_limit - self._depth[node]
            if room > 0:
                heapq.heappush(self._queue_heap, (room, node))
            return
        if self._free[node] > 0 and not self._in_slot_heap[node]:
            heapq.heappush(self._slot_heap, node)
            self._in_slot_heap[node] = True
        if (
            self._depth[node] < self.config.queue_limit
            and not self._in_queue_heap[node]
        ):
            heapq.heappush(self._queue_heap, node)
            self._in_queue_heap[node] = True

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
        heapq.heappush(
            self._events,
            (now + self.tools[tool_index].gpu_seconds, seq, _EV_GPU_DONE,
             NO_NODE, lo, 0, pieces),
        )
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
            node = self._peek_free_node()
            if node is None:
                break
            stop = cursor + min(hi - cursor, self._free[node])
            pieces.append(self._claim(seq, node, cursor, stop, tool_index))
            if self._pack:
                self._touch_node(node)
            cursor = stop
        if pieces:
            self._launch(seq, lo, tool_index, now, pieces)
        return cursor

    def _start_cpu(
        self, lo: int, hi: int, tool_index: int, now: float, degraded: bool
    ) -> None:
        count = hi - lo
        self.store.start_range(lo, hi, NO_NODE, now, gpu=False)
        heapq.heappush(
            self._events,
            (now + self.tools[tool_index].cpu_seconds, next(self._seq),
             _EV_CPU_DONE, NO_NODE, lo, hi, tool_index),
        )
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
        limit = self.config.queue_limit
        while cursor < hi:
            node = self._peek_queue_node()
            if node is None:
                break
            take = min(hi - cursor, limit - self._depth[node])
            self.store.queue_range(
                cursor, cursor + take, node, pool=pool_of(node, self._base)
            )
            self._queues[node].append(
                (cursor, cursor + take, tool_index, deadline)
            )
            self._depth[node] += take
            self._queued_now += take
            self._c_queued.inc(take)
            if self._pack:
                self._touch_node(node)
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
    def _complete_range(self, lo: int, hi: int, now: float) -> None:
        count = hi - lo
        self.store.complete_range(lo, hi, now)
        self._completed_n += count
        self._c_completed.inc(count)
        _tool, submit, _deadline = self.store.arrival(lo)
        self._h_latency.observe_many(now - submit, count)

    @hot_path
    def _drain_queue(self, node: int, now: float) -> None:
        """Start queued groups on freed slots, shedding expired ones."""
        queue = self._queues[node]
        while queue and self._free[node] > 0:
            glo, ghi, gtool, deadline = queue[0]
            if now > deadline:
                queue.popleft()
                self._depth[node] -= ghi - glo
                self._queued_now -= ghi - glo
                self._shed_group(glo, ghi, ShedReason.DEADLINE_EXPIRED, now)
                continue
            take = min(self._free[node], ghi - glo)
            if take == ghi - glo:
                queue.popleft()
            else:
                queue[0] = (glo + take, ghi, gtool, deadline)
            self._depth[node] -= take
            self._queued_now -= take
            # A queue-drain start is a one-piece span on this node.
            seq = next(self._seq)
            self._launch(
                seq, glo, gtool, now,
                [self._claim(seq, node, glo, glo + take, gtool)],
            )
        self._touch_node(node)

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
                    self._complete_range(run_lo, lo, now)
                run_lo = stop
            else:
                freed.append((node, stop - lo))
            lo = stop
        if run_lo < lo:
            self._complete_range(run_lo, lo, now)
        for node, count in freed:
            self._free[node] += count
            self._busy -= count
            if self._usable[node]:
                self._free_total += count
                self._drain_queue(node, now)  # ends by re-indexing the node
            elif self._draining[node] and not live[node]:
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

    def _on_fail(self, now: float, node: int, recovery_seconds: float) -> None:
        if not self._active[node]:
            return  # outage aimed at a node that isn't commissioned
        was_draining = self._draining[node]
        self._quarantined[node] = True
        self._c_quarantines.inc()
        if self._usable[node]:
            self._usable[node] = False
            self._usable_count -= 1
            self._free_total -= self._free[node]
        # Interrupt running groups in ascending row order (== ascending
        # job-id order, the reference model's iteration order).
        groups = sorted(self._live[node].values())
        self._live[node].clear()
        self._free[node] = 0
        self._busy -= sum(ghi - glo for glo, ghi, _tool in groups)
        for lo, hi, tool_index in groups:
            self._resubmit(lo, hi, tool_index, now)
        # Queued groups resubmit in FIFO order after the running ones.
        queued = list(self._queues[node])
        self._queues[node].clear()
        self._queued_now -= self._depth[node]
        self._depth[node] = 0
        for lo, hi, tool_index, _deadline in queued:
            self._resubmit(lo, hi, tool_index, now)
        if was_draining:
            # A draining node that dies never comes back: its work has
            # already been resubmitted, so it decommissions right here.
            self._decommission(node, now)
            return
        heapq.heappush(
            self._events,
            (now + recovery_seconds, next(self._seq), _EV_RECOVER, node,
             0, 0, 0),
        )

    def _on_recover(self, node: int) -> None:
        if not self._quarantined[node]:
            return  # stale recovery (overlapping outage windows)
        self._quarantined[node] = False
        self._free[node] = self._cap
        self._usable[node] = True
        self._usable_count += 1
        self._free_total += self._cap
        self._touch_node(node)

    # ------------------------------------------------------------------ #
    # elasticity
    # ------------------------------------------------------------------ #
    def _decommission(self, node: int, now: float) -> None:
        """Retire a drained node: it stops costing from this instant."""
        self._active[node] = False
        self._draining[node] = False
        self._quarantined[node] = False
        self._draining_count -= 1
        self._free[node] = 0
        self._active_count -= 1
        self._decommissioned_nodes += 1
        self._meter.set_active(now, self._active_count)
        if self.config.autoscale is not None:
            self._c_pool_events.labels(event="decommissioned").inc()

    def _apply_scale_up(self, delta: int, now: float) -> None:
        self._pending_nodes += delta
        self._scale_ups += 1
        heapq.heappush(
            self._events,
            (now + self.config.autoscale.provision_lag_s, next(self._seq),
             _EV_PROVISION, 0, delta, 0, 0.0),
        )
        self._c_scale_events.labels(direction="up").inc()

    def _apply_scale_down(
        self, count: int, candidates: list[int], now: float
    ) -> None:
        """Drain the most drainable elastic nodes (least load, then
        highest index so the pool retracts from the top)."""
        cap = self._cap
        victims = sorted(
            candidates,
            key=lambda v: (cap - self._free[v] + self._depth[v], -v),
        )[:count]
        self._scale_downs += 1
        self._c_scale_events.labels(direction="down").inc()
        for node in victims:
            self._draining[node] = True
            self._draining_count += 1
            self._usable[node] = False
            self._usable_count -= 1
            self._free_total -= self._free[node]
        for node in victims:
            # Scale-in reuses the failure resubmit path for queued work:
            # one more hop, FIFO, fail past the hop budget.
            queued = list(self._queues[node])
            self._queues[node].clear()
            self._queued_now -= self._depth[node]
            self._depth[node] = 0
            for lo, hi, tool_index, _deadline in queued:
                self._resubmit(lo, hi, tool_index, now)
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
            if self._active[node]:
                continue
            self._active[node] = True
            self._epoch[node] += 1
            self._free[node] = self._cap
            self._active_count += 1
            self._usable[node] = True
            self._usable_count += 1
            self._free_total += self._cap
            self._touch_node(node)
            created += 1
        self._pending_nodes -= count
        self._provisioned_nodes += created
        self._meter.set_active(now, self._active_count)
        if self._active_count > self._peak_nodes:
            self._peak_nodes = self._active_count
        if self.config.autoscale is not None and created:
            self._c_pool_events.labels(event="provisioned").inc(created)

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
            heapq.heappush(
                self._events,
                (now + auto.eval_interval_s, next(self._seq), _EV_EVAL,
                 0, 0, 0, 0.0),
            )

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
            time, seq, kind, node, lo, hi, extra = heapq.heappop(events)
            self._now = time
            if kind == _EV_GPU_DONE:
                self._on_span_done(time, seq, lo, extra)
            elif kind == _EV_CPU_DONE:
                self._complete_range(lo, hi, time)
            elif kind == _EV_FAIL:
                self._on_fail(time, node, float(extra))
            elif kind == _EV_RECOVER:
                self._on_recover(node)
            elif kind == _EV_EVAL:
                self._on_eval(time)
            else:
                self._on_provision(time, lo)

    # ------------------------------------------------------------------ #
    @hot_path
    def run(self, batches: Iterable) -> FleetResult:
        """Drive the fleet through time-sorted arrival batches."""
        config = self.config
        for batch in batches:
            if batch.count <= 0:
                continue
            self._drain_until(batch.time)
            self._now = max(self._now, batch.time)
            lo, hi = self.store.append_batch(
                batch.count, batch.tool, batch.time,
                batch.time + config.deadline_seconds,
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
        submitted = int(value("gyan_fleet_jobs_submitted_total"))
        completed = int(value("gyan_fleet_jobs_completed_total"))
        failed = int(value("gyan_fleet_jobs_failed_total"))
        shed = {
            reason.value: int(
                value("gyan_fleet_jobs_shed_total", reason=reason.value)
            )
            for reason in ShedReason
            if value("gyan_fleet_jobs_shed_total", reason=reason.value)
        }
        shed_total = sum(shed.values())
        # Overload ledger identity (the storm drill's invariant, fleet
        # scale): every submitted job ends exactly one way.
        if submitted != completed + shed_total + failed:
            raise RuntimeError(
                "fleet ledger out of balance: "
                f"{submitted} submitted != {completed} completed + "
                f"{shed_total} shed + {failed} failed"
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
            jobs_submitted=submitted,
            mapping_decisions=mapped_gpu + mapped_cpu,
            mapped_gpu=mapped_gpu,
            mapped_cpu=mapped_cpu,
            degraded=int(value("gyan_fleet_jobs_degraded_total")),
            queued=int(value("gyan_fleet_jobs_queued_total")),
            completed=completed,
            resubmitted=int(value("gyan_fleet_jobs_resubmitted_total")),
            failed=failed,
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
