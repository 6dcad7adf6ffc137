"""The fleet-scale simulation tier: 1000 nodes, millions of jobs.

The object tier (one :class:`~repro.cluster.node.ComputeNode` under
:func:`~repro.core.orchestrator.build_deployment`) runs real
:class:`GalaxyJob` objects through a full GYAN deployment — faithful,
but ~milliseconds of Python per job, on one node.  The fleet tier is the
multi-node model: it runs the paper's mapping (Pseudocode 2: first
available GPU, else fall back) across many nodes with every per-job
cost flipped to a per-*group* cost:

* **Columnar job state** — :class:`~repro.cluster.jobstore.JobStore`
  holds one entry per row range that was transitioned together (36
  bytes a node piece) in right-sized ``array`` columns, nothing per
  job: a placed span appends its runs with one ``extend`` per column
  and completes with one write per column.
* **Batched mapping** — arrivals come from the diurnal generator as
  same-instant :class:`~repro.workloads.diurnal.ArrivalBatch` groups;
  eligibility (GPU-wanted × fleet-has-capacity) is decided once per
  batch and applied to the whole range — the object tier's
  :meth:`~repro.core.mapper.GpuComputationMapper.prepare_environment`
  decides it once per job.
* **Aggregate observability** — the run keeps one plain tally per
  counted quantity and publishes every counter once, at the end;
  latencies land per completed group via
  :meth:`~repro.observability.metrics.HistogramChild.observe_many`.
  There are no per-job spans on this path (at 1M jobs the spans *are*
  the workload).

Three mechanisms carry everything else, one of each:

* **Placement is which index you build.**  ``FleetConfig.placement``
  names a node index in :mod:`repro.cluster.placement` (``spread``: the
  paper's first-available node; ``pack``: the fullest one).  The
  simulator builds it over free GPU slots and over queue *room*, claims
  a whole placement — however many nodes it spans — with one
  ``take(demand)``, gives a finished span's slots back with one
  ``release`` and calls ``touch(node)`` after any other return of slots
  or room; nothing here branches on the policy's name.
  ``benefit-aware`` is spread plus one gate
  (:meth:`FleetSimulator._place_low_benefit`).
* **One node lifecycle.**  A node is off, usable, quarantined or
  draining, and :meth:`FleetSimulator._set_state` is the only place
  that changes it — and with it the usable-node and free-slot totals
  the autoscaler and the reserve gate read.
* **Events carry their handler.**  The heap holds ``(time, seq,
  handler, args)``.  A placed span — however many nodes it covers — is
  ONE entry carrying its tool, its rows' arrival instant and its pieces
  as parallel ``nodes`` / ``counts`` / ``stops`` lists; its handler
  completes each contiguous still-live run of node pieces with one
  store write.  A CPU group's event and a queue entry carry the arrival
  instant too, so no completion or queue drain looks it up in the
  store.  A failure scans the in-flight span entries once and
  tombstones that node's share of every span it hosts; a span no
  failure touched completes as one run.

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
from repro.observability.metrics import MetricsRegistry
from repro.resilience.shedding import ShedReason
from repro.workloads.diurnal import (
    DiurnalProfile,
    FleetToolClass,
    check_arrival,
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
        self, config: FleetConfig, tools: tuple[FleetToolClass, ...]
    ) -> None:
        if len(tools) > MAX_TOOLS:
            raise ValueError(
                f"tool table holds at most {MAX_TOOLS} classes, "
                f"got {len(tools)}"
            )
        self.config = config
        self.tools = tools
        n = config.nodes
        cap = config.slots_per_node
        auto = config.autoscale
        self._cap = cap
        self._benefit = config.placement == PLACEMENT_BENEFIT
        #: Pool boundary: node < _base is the always-on base pool.
        self._base = auto.min_nodes if auto is not None else n
        self.store = JobStore(self._base)
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
        #: Per node: FIFO of queued (lo, hi, tool, submit, deadline) groups.
        self._queues: list[deque[tuple[int, int, int, float, float]]] = [
            deque() for _ in range(n)
        ]
        #: Span id → nodes whose piece of that in-flight span a failure
        #: interrupted (tombstones; empty on a failure-free day).  A node
        #: holds at most one piece of a span.
        self._cut: dict[int, list[int]] = {}
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
        # -- the run's tallies: plain ints, published by _result -------- #
        self._submitted_n = 0
        self._mapped_gpu = 0
        self._mapped_cpu = 0
        self._degraded_n = 0
        self._queued_n = 0
        self._completed_n = 0
        self._shed: dict[ShedReason, int] = {}
        self._resubmitted_n = 0
        self._failed_n = 0
        self._quarantines = 0
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
        # -- aggregate observability: a registry of this run's own ------ #
        self.metrics = MetricsRegistry()
        self._c_submitted = self.metrics.counter(
            "gyan_fleet_jobs_submitted_total",
            "Jobs appended to the fleet job store",
        )
        self._c_mapped = self.metrics.counter(
            "gyan_fleet_mapping_decisions_total",
            "Batched mapping decisions by arm",
            labels=("arm",),
        )
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
        self._latency = self.metrics.histogram(
            "gyan_fleet_job_latency_seconds",
            "Submit→finish latency of completed jobs (group-aggregated)",
            buckets=(60.0, 300.0, 900.0, 3600.0, 14400.0, 86400.0,
                     float("inf")),
        ).labels()
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
    def _launch(
        self,
        tool_index: int,
        now: float,
        submit: float,
        nodes: list[int],
        counts: list[int],
        stops: list[int],
    ) -> None:
        """Start the claimed pieces — ``counts[i]`` rows from
        ``stops[i]`` on ``nodes[i]``, all submitted at ``submit`` — at
        span cost: one store write per shared column, one completion
        event carrying the tool, the arrival instant and the pieces, one
        count."""
        count = stops[-1] - stops[0]
        epoch = self._epoch
        self.store.start_span(now, stops, nodes, [epoch[n] for n in nodes])
        self._at(now + self.tools[tool_index].gpu_seconds,
                 self._on_span_done, next(self._seq), tool_index, submit,
                 nodes, counts, stops)
        self._free_total -= count
        self._busy += count
        self._mapped_gpu += count

    @hot_path
    def _fill_gpu(
        self, lo: int, hi: int, tool_index: int, now: float, submit: float
    ) -> int:
        """Start rows from ``lo`` on free slots; returns the first unplaced.

        One ``take`` claims the slots, filling the policy's best node to
        capacity before moving on; the rest is settled once for the
        placed span (:meth:`_launch`).
        """
        nodes, counts = self._slots.take(hi - lo)
        if not nodes:
            return lo
        stops = list(itertools.accumulate(counts, initial=lo))
        self._launch(tool_index, now, submit, nodes, counts, stops)
        return stops[-1]

    def _start_cpu(
        self,
        lo: int,
        hi: int,
        tool_index: int,
        now: float,
        submit: float,
        degraded: bool,
    ) -> None:
        count = hi - lo
        self.store.start_range(lo, hi, NO_NODE, now, gpu=False)
        self._at(now + self.tools[tool_index].cpu_seconds,
                 self._on_range_done, lo, hi, submit)
        self._mapped_cpu += count
        if degraded:
            self._degraded_n += count

    def _shed_group(
        self, lo: int, hi: int, reason: ShedReason, now: float
    ) -> None:
        self.store.shed_range(lo, hi, reason, now)
        self._shed[reason] = self._shed.get(reason, 0) + hi - lo

    # ------------------------------------------------------------------ #
    # batched mapping (vectorised Pseudocode 2 over the columnar batch)
    # ------------------------------------------------------------------ #
    @hot_path
    def _place_range(
        self, lo: int, hi: int, tool_index: int, now: float, submit: float
    ) -> None:
        """Map one same-instant, same-class row range submitted at
        ``submit`` (``now`` on arrival, earlier on a resubmit).

        The eligibility decision (Pseudocode 2: does the tool want a GPU
        and does the fleet have one?) happens once for the whole range;
        placement claims contiguous sub-ranges from the front, filling
        the policy's best node to capacity before moving on — identical,
        job for job, to the per-job-object reference model.  Every event
        and queue entry a piece of the range makes carries ``submit``.
        """
        tool = self.tools[tool_index]
        if not tool.gpu_eligible:
            self._start_cpu(lo, hi, tool_index, now, submit, degraded=False)
            return
        if (
            self._benefit
            and tool.degradable
            and tool.gpu_benefit < self.config.benefit_threshold
        ):
            self._place_low_benefit(lo, hi, tool_index, now, submit)
            return
        cursor = self._fill_gpu(lo, hi, tool_index, now, submit)
        if cursor == hi:
            return
        # The expression run stored, so the same double.
        deadline = submit + self.config.deadline_seconds
        for node, count in zip(*self._rooms.take(hi - cursor)):
            stop = cursor + count
            self.store.queue_range(cursor, stop, node)
            self._queues[node].append(
                (cursor, stop, tool_index, submit, deadline)
            )
            self._queued_now += count
            self._queued_n += count
            cursor = stop
        if cursor < hi:
            if self.config.degrade_to_cpu and tool.degradable:
                self._start_cpu(
                    cursor, hi, tool_index, now, submit, degraded=True
                )
            else:
                self._shed_group(cursor, hi, ShedReason.QUEUE_FULL, now)

    def _place_low_benefit(
        self, lo: int, hi: int, tool_index: int, now: float, submit: float
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
        cursor = self._fill_gpu(lo, lo + take_total, tool_index, now, submit)
        if cursor < hi:
            self._start_cpu(cursor, hi, tool_index, now, submit, degraded=True)

    # ------------------------------------------------------------------ #
    # event handlers
    # ------------------------------------------------------------------ #
    def _on_range_done(
        self, now: float, lo: int, hi: int, submit: float
    ) -> None:
        """A CPU group's completion event, and each live run of a span's:
        rows [lo, hi), all submitted at ``submit``."""
        count = hi - lo
        self.store.complete_range(lo, hi, now)
        self._completed_n += count
        self._latency.observe_many(now - submit, count)

    @hot_path
    def _drain_queue(self, node: int, now: float) -> None:
        """Start queued groups on freed slots, shedding expired ones.
        The caller re-indexes the node's slots; this, its queue room."""
        queue = self._queues[node]
        room = self._room[node]
        while queue and self._free[node] > 0:
            glo, ghi, gtool, submit, deadline = queue[0]
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
                queue[0] = (glo + take, ghi, gtool, submit, deadline)
            self._room[node] += take
            self._queued_now -= take
            self._free[node] -= take
            # A queue-drain start is a one-piece span on this node.
            self._launch(gtool, now, submit, [node], [take], [glo, glo + take])
        if self._room[node] != room:
            self._rooms.touch(node)

    @hot_path
    def _on_span_done(
        self,
        now: float,
        seq: int,
        tool_index: int,
        submit: float,
        nodes: list[int],
        counts: list[int],
        stops: list[int],
    ) -> None:
        """Complete span ``seq``: one store write per still-live run of
        pieces, one ``release`` of the live pieces' slots, then the
        queue drains and decommissions those nodes are owed.

        A span no failure touched (every span of a failure-free day) is
        one run.  A piece whose node failed since the start is a
        tombstone (listed in ``_cut``, its rows were resubmitted) and
        splits the span into separate runs.
        """
        cut = self._cut.pop(seq, ())
        if not cut:
            self._on_range_done(now, stops[0], stops[-1], submit)
        else:
            run_lo = start = stops[0]
            for node, stop in zip(nodes, stops[1:]):
                if node in cut:
                    if run_lo < start:
                        self._on_range_done(now, run_lo, start, submit)
                    run_lo = stop
                start = stop
            if run_lo < start:
                self._on_range_done(now, run_lo, start, submit)
            live = [at for at, node in enumerate(nodes) if node not in cut]
            nodes = [nodes[at] for at in live]
            counts = [counts[at] for at in live]
        self._busy -= sum(counts)
        self._free_total += self._slots.release(nodes, counts)
        # With nothing queued anywhere and no node draining, every step
        # of this walk is a no-op: a live piece's node is usable (its
        # queue is empty) or draining — no other lifecycle state keeps
        # an uncut piece.
        if not (self._queued_now or self._draining_count):
            return
        free, usable, cap = self._free, self._usable, self._cap
        queues, touch = self._queues, self._slots.touch
        for node in nodes:
            if usable[node]:
                if queues[node]:
                    self._drain_queue(node, now)
                    touch(node)
            elif free[node] == cap:
                # Not usable yet not cut: draining, and now empty.
                self._decommission(node, now)

    def _resubmit(self, lo: int, hi: int, tool_index: int, now: float) -> None:
        """Re-enter rows [lo, hi) after their node left service — the one
        place the simulator looks up a range's arrival (``row``)."""
        count = hi - lo
        row = self.store.row(lo)
        if row.hops + 1 > self.config.max_hops:
            self.store.fail_range(lo, hi, now)
            self._failed_n += count
            return
        self.store.resubmit_range(lo, hi)
        self._resubmitted_n += count
        self._place_range(lo, hi, tool_index, now, row.submit)

    def _evict_queue(self, node: int, now: float) -> None:
        """Flush a node that left service: its queued groups resubmit in
        FIFO order — one more hop each, failing past the hop budget."""
        queued = list(self._queues[node])
        self._queues[node].clear()
        self._queued_now -= self.config.queue_limit - self._room[node]
        self._room[node] = self.config.queue_limit
        for lo, hi, tool_index, _submit, _deadline in queued:
            self._resubmit(lo, hi, tool_index, now)

    def _on_fail(self, now: float, node: int, recovery_seconds: float) -> None:
        state = self._state[node]
        if state == _OFF:
            return  # outage aimed at a node that isn't commissioned
        self._quarantines += 1
        if state != _DRAINING:
            self._set_state(node, _QUARANTINED)
        # Interrupt running groups in ascending row order (== ascending
        # job-id order, the reference model's iteration order), then the
        # queued ones.
        groups = sorted(self._interrupt(node))
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

    def _interrupt(self, node: int) -> list[tuple[int, int, int]]:
        """Tombstone ``node``'s piece of every in-flight span; returns
        each piece as ``(lo, hi, tool)``.  One scan of the heap per
        failure, O(in-flight events); a span holds at most one piece per
        node."""
        span_done = self._on_span_done
        cut = self._cut
        groups = []
        for _time, _seq, handler, args in self._events:
            if handler != span_done:
                continue
            seq, tool_index, _submit, nodes, _counts, stops = args
            if node not in nodes:
                continue
            tombstones = cut.setdefault(seq, [])
            if node not in tombstones:
                tombstones.append(node)
                at = nodes.index(node)
                groups.append((stops[at], stops[at + 1], tool_index))
        return groups

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

    def _apply_scale_up(self, delta: int, now: float) -> None:
        self._pending_nodes += delta
        self._scale_ups += 1
        self._at(now + self.config.autoscale.provision_lag_s,
                 self._on_provision, delta)

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
        # Every victim leaves service before any queue is flushed, so no
        # evicted job lands on another victim.
        for node in victims:
            self._set_state(node, _DRAINING)
        for node in victims:
            self._evict_queue(node, now)
            if self._free[node] == self._cap:
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

    @hot_path
    def _on_eval(self, now: float) -> None:
        auto = self.config.autoscale
        shed_total = sum(self._shed.values())
        shed_delta = shed_total - self._shed_at_eval
        self._shed_at_eval = shed_total
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
        inflight = (
            self._submitted_n - self._completed_n
            - shed_total - self._failed_n
        )
        if not self._input_done or inflight > 0 or self._pending_nodes > 0:
            self._at(now + auto.eval_interval_s, self._on_eval)

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
                batch.time + self.config.deadline_seconds,
            )
            self._submitted_n += batch.count
            self._place_range(lo, hi, batch.tool, batch.time, batch.time)
        self._input_done = True
        self._drain_until(math.inf)
        self._meter.advance(self._now)
        return self._result()

    def _result(self) -> FleetResult:
        shed = {
            reason.value: self._shed[reason]
            for reason in ShedReason
            if reason in self._shed
        }
        # Overload ledger identity (the storm drill's invariant, fleet
        # scale): every submitted job ends exactly one way.
        shed_total = sum(shed.values())
        if self._submitted_n != (
            self._completed_n + shed_total + self._failed_n
        ):
            raise RuntimeError(
                "fleet ledger out of balance: "
                f"{self._submitted_n} submitted != "
                f"{self._completed_n} completed + "
                f"{shed_total} shed + {self._failed_n} failed"
            )
        # The registry is this run's own: publishing the tallies once
        # gives exactly the per-event counts.  An arm, reason or event
        # that never fired emits no series.
        self._c_submitted.inc(self._submitted_n)
        for arm, count in (("gpu", self._mapped_gpu), ("cpu", self._mapped_cpu)):
            if count:
                self._c_mapped.labels(arm=arm).inc(count)
        self._c_queued.inc(self._queued_n)
        self._c_completed.inc(self._completed_n)
        for reason, count in self._shed.items():
            self._c_shed.labels(reason=reason.value).inc(count)
        self._c_degraded.inc(self._degraded_n)
        self._c_resubmitted.inc(self._resubmitted_n)
        self._c_failed.inc(self._failed_n)
        self._c_quarantines.inc(self._quarantines)
        auto = self.config.autoscale
        if auto is not None:
            for direction, count in (("up", self._scale_ups),
                                     ("down", self._scale_downs)):
                if count:
                    self._c_scale_events.labels(direction=direction).inc(count)
            for event, count in (
                ("provisioned", self._provisioned_nodes),
                ("decommissioned", self._decommissioned_nodes),
            ):
                if count:
                    self._c_pool_events.labels(event=event).inc(count)
            self._c_node_seconds.inc(self._meter.total)
            base_active = min(self._base, self._active_count)
            self._g_pool.labels(pool="base").set(base_active)
            self._g_pool.labels(pool="elastic").set(
                self._active_count - base_active
            )
            self._g_pool.labels(pool="pending").set(self._pending_nodes)
        return FleetResult(
            nodes=self.config.nodes,
            gpus_per_node=self.config.gpus_per_node,
            jobs_submitted=self._submitted_n,
            mapping_decisions=self._mapped_gpu + self._mapped_cpu,
            mapped_gpu=self._mapped_gpu,
            mapped_cpu=self._mapped_cpu,
            degraded=self._degraded_n,
            queued=self._queued_n,
            completed=self._completed_n,
            resubmitted=self._resubmitted_n,
            failed=self._failed_n,
            quarantines=self._quarantines,
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


def run_fleet(config: FleetConfig, profile: DiurnalProfile) -> FleetResult:
    """Run the profile's diurnal day through the fleet (the day is
    generated on the profile's first run and shared by later ones)."""
    simulator = FleetSimulator(config, profile.tools)
    return simulator.run(profile.batches)


#: The canonical A/B fleet shape: paired with
#: :func:`~repro.workloads.diurnal.ab_storm_profile`, this sizes GPU
#: demand so the midday storm moderately exceeds capacity with the
#: low-benefit class as the marginal load — the regime where placement
#: policies actually diverge.  The CLI's ``repro fleet --ab``, the
#: differential policy tests and CI's A/B matrix all run exactly this
#: shape so their numbers agree.
AB_FLEET_NODES = 40
AB_FLEET_GPUS_PER_NODE = 8
AB_FLEET_QUEUE_LIMIT = 16
AB_FLEET_JOBS = 40_000
AB_FLEET_SEED = 7
