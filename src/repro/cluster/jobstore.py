"""Columnar job state for the fleet-scale simulation tier.

At fleet scale (1000 nodes × 8 GPUs × 1M jobs) per-job Python objects
are the bottleneck: a million ``GalaxyJob``-sized instances cost ~GBs of
allocator churn and force every state transition through attribute
access.  :class:`JobStore` is the struct-of-arrays answer — one stdlib
``array`` per field that changes over a job's life, ``'d'`` (float64)
for instants and the narrowest signed integer that holds the field for
discrete columns (30 bytes a job) — so the fleet path appends,
transitions, and digests job state with C-speed bulk slice operations
instead of per-job Python work.

Jobs are identified by row index (dense, append-only).  The fleet
simulator works in contiguous *[lo, hi)* row groups (an arrival batch
lands as one contiguous range and every split keeps sub-ranges
contiguous), so all transitions here are range operations.

Arrival attributes are per batch, not per row: ``tool``, ``submit`` and
``deadline`` are constants of an arrival batch that never change
afterwards, so they live once per :meth:`JobStore.append_batch` in an
append-only batch table beside the batch's first row.  Rows are
contiguous, so a row's batch is one ``bisect``
(:meth:`JobStore.arrival`); readers that want them per row
(:meth:`JobStore.digest`, :func:`gpu_wait_percentile`) expand the table
a bounded chunk of rows at a time.

Capacity is separate from length: :meth:`JobStore.reserve` allocates
every column once, pre-filled with a fresh job's values, so
:meth:`JobStore.append_batch` writes one batch-table entry and no row
at all (an unsized store grows through the same ``reserve`` by
doubling) and every reader sees the logical prefix only.
:meth:`JobStore.start_span` is the placement-side counterpart: columns
the node pieces of a placed span share are written once over the span.

The per-job-object reference model
(:mod:`repro.cluster.fleet_reference`) materialises its jobs into this
same layout via :meth:`JobStore.append_batch` + single-row transitions,
which is what lets the property tests assert *bit-identical* state:
:meth:`digest` hashes the canonical 64-bit per-row view of every field,
so a column's storage width — and whether a field is stored per row or
per batch — is an allocation detail no digest can see.
"""

from __future__ import annotations

import hashlib
import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterator, Sequence

import numpy as np

from repro.hotpath import hot_path
from repro.resilience.shedding import ShedReason

#: Sentinel for "no destination node" / "no instant recorded".
NO_NODE = -1
NO_INSTANT = -1.0
NO_REASON = -1
#: Sentinel for "no node pool" (CPU arm / never placed).
NO_POOL = -1

#: Largest fleet shape the storage widths hold: ``hops`` is a signed
#: byte, ``tool`` a signed short (batch table), ``dest`` a signed 32-bit
#: node index.
MAX_HOPS = 2**7 - 1
MAX_TOOLS = 2**15
MAX_NODES = 2**31 - 1

#: Stable ShedReason → int column encoding (enum definition order).
SHED_REASON_CODE: dict[ShedReason, int] = {
    reason: code for code, reason in enumerate(ShedReason)
}
SHED_REASON_BY_CODE: dict[int, ShedReason] = {
    code: reason for reason, code in SHED_REASON_CODE.items()
}


class FleetJobState(IntEnum):
    """Fleet job lifecycle, mirroring the PR-7 resilience semantics.

    ``PENDING → RUNNING → COMPLETED`` is the happy path; ``QUEUED``
    covers bounded per-node queues, ``SHED`` carries a
    :class:`~repro.resilience.shedding.ShedReason` in the ``shed``
    column, and ``FAILED`` is a job whose resubmit chain exhausted its
    hop budget after node failures.
    """

    PENDING = 0
    QUEUED = 1
    RUNNING = 2
    COMPLETED = 3
    SHED = 4
    FAILED = 5


@dataclass(frozen=True)
class JobRow:
    """One job's fields, materialised for tests and debugging."""

    index: int
    state: FleetJobState
    tool: int
    submit: float
    deadline: float
    destination: int
    hops: int
    shed: ShedReason | None
    start: float
    finish: float
    gpu: bool
    pool: int
    epoch: int


def _fill(column: array, lo: int, hi: int, value: float) -> None:
    """``column[lo:hi] = value`` at the column's own width (C-level repeat)."""
    column[lo:hi] = array(column.typecode, (value,)) * (hi - lo)


#: Rows a result-time reader (:meth:`JobStore.digest`,
#: :meth:`JobStore.count_by_state`, :func:`gpu_wait_percentile`) widens
#: or expands per step: a 512 KiB temporary whatever the store's size.
_DIGEST_CHUNK = 1 << 16


class JobStore:
    """Struct-of-arrays job state with range-bulk transitions.

    Columns (parallel, one entry per job — 30 bytes a row):

    ========== ===== =================================================
    column     type  meaning
    ========== ===== =================================================
    state      'b'   :class:`FleetJobState`
    dest       'i'   destination node index (:data:`NO_NODE` = none/CPU)
    hops       'b'   resubmit chain length (PR-7 hop cap)
    shed       'b'   :data:`SHED_REASON_CODE` (:data:`NO_REASON` = none)
    start      'd'   last execution start (:data:`NO_INSTANT` = never)
    finish     'd'   terminal instant (:data:`NO_INSTANT` = not yet)
    gpu        'b'   1 when the last mapping landed on a GPU slot
    pool       'h'   node pool of the last placement (:data:`NO_POOL`)
    epoch      'i'   commission epoch of the destination node (0 = n/a)
    ========== ===== =================================================

    Batch table (parallel, one entry per :meth:`append_batch`, append
    only — what a job arrives with never changes):

    ========== ===== =================================================
    lo         'q'   first row of the batch (it ends where the next
                     begins, the last at ``len(store)``)
    tool       'h'   tool-class index into the workload's tool table
    submit     'd'   submission instant (virtual seconds)
    deadline   'd'   queue-TTL instant (submit + deadline_s)
    ========== ===== =================================================

    The integer widths bound the fleet shape (:data:`MAX_HOPS`,
    :data:`MAX_TOOLS`, :data:`MAX_NODES`); :class:`FleetConfig` and
    :class:`FleetSimulator` reject larger shapes at construction and
    :meth:`append_batch` a tool index the table cannot hold, so no
    write can overflow mid-run.
    Rows past ``len(store)`` are reserved capacity; no reader sees them.
    """

    #: (column, typecode, value of a freshly submitted job).
    _SPECS = (
        ("state", "b", int(FleetJobState.PENDING)),
        ("dest", "i", NO_NODE),
        ("hops", "b", 0),
        ("shed", "b", NO_REASON),
        ("start", "d", NO_INSTANT),
        ("finish", "d", NO_INSTANT),
        ("gpu", "b", 0),
        ("pool", "h", NO_POOL),
        ("epoch", "i", 0),
    )

    #: Names of the per-row columns.
    COLUMNS = tuple(name for name, _code, _fresh in _SPECS)

    #: Every field of a job in digest order (also :class:`JobRow`'s):
    #: the per-row columns with the arrival attributes where the digest
    #: has always had them.
    DIGEST_ORDER = (
        "state", "tool", "submit", "deadline", "dest", "hops", "shed",
        "start", "finish", "gpu", "pool", "epoch",
    )

    __slots__ = (
        *COLUMNS,
        "_batch_lo", "_batch_tool", "_batch_submit", "_batch_deadline",
        "_n",
    )

    def __init__(self) -> None:
        for name, code, _fresh in self._SPECS:
            setattr(self, name, array(code))
        self._batch_lo = array("q")
        self._batch_tool = array("h")
        self._batch_submit = array("d")
        self._batch_deadline = array("d")
        self._n = 0

    def __len__(self) -> int:
        return self._n

    # -- appends -------------------------------------------------------- #
    @hot_path
    def reserve(self, capacity: int) -> None:
        """Allocate room for ``capacity`` jobs in total (never shrinks).

        Columns are rebuilt at exactly that size with a fresh-job tail,
        so column objects change: re-read ``store.<column>`` afterwards.
        """
        have = len(self.state)
        if capacity <= have:
            return
        for name, code, fresh in self._SPECS:
            tail = array(code, (fresh,)) * (capacity - have)
            # An empty store takes the tail as the column: no second copy.
            setattr(self, name, getattr(self, name) + tail if have else tail)

    @hot_path
    def append_batch(
        self, count: int, tool: int, submit: float, deadline: float
    ) -> tuple[int, int]:
        """Append ``count`` PENDING jobs of one class; returns [lo, hi).

        One batch-table entry and no row write: reserved rows already
        hold a fresh job's values.
        """
        if count <= 0:
            raise ValueError(f"batch count must be positive, got {count}")
        if not 0 <= tool < MAX_TOOLS:
            raise ValueError(
                f"tool index must be in [0, {MAX_TOOLS}), got {tool}"
            )
        lo = self._n
        hi = lo + count
        capacity = len(self.state)
        if hi > capacity:
            self.reserve(max(hi, 2 * capacity))
        self._batch_lo.append(lo)
        self._batch_tool.append(tool)
        self._batch_submit.append(submit)
        self._batch_deadline.append(deadline)
        self._n = hi
        return lo, hi

    # -- range transitions ---------------------------------------------- #
    def start_range(
        self,
        lo: int,
        hi: int,
        node: int,
        now: float,
        gpu: bool,
        pool: int = NO_POOL,
        epoch: int = 0,
    ) -> None:
        """PENDING/QUEUED → RUNNING on ``node`` (``NO_NODE`` = CPU arm)."""
        self.start_span(lo, now, ((hi, node, pool, epoch),), gpu)

    @hot_path
    def start_span(
        self,
        lo: int,
        now: float,
        pieces: Sequence[tuple[int, int, int, int]],
        gpu: bool = True,
    ) -> None:
        """Start consecutive node pieces of one placed span, at span cost.

        ``pieces`` are ``(hi, node, pool, epoch)`` in row order, each
        starting where the previous ended (``lo`` for the first).  The
        shared columns are written once over the span; per piece only
        ``dest`` is, plus ``pool``/``epoch`` where a node's differ from
        the first piece's (an elastic or re-commissioned node).
        """
        _hi, _node, span_pool, span_epoch = pieces[0]
        hi = pieces[-1][0]
        _fill(self.state, lo, hi, int(FleetJobState.RUNNING))
        _fill(self.start, lo, hi, now)
        _fill(self.gpu, lo, hi, 1 if gpu else 0)
        _fill(self.pool, lo, hi, span_pool)
        _fill(self.epoch, lo, hi, span_epoch)
        dest = self.dest
        for hi, node, pool, epoch in pieces:
            _fill(dest, lo, hi, node)
            if pool != span_pool:
                _fill(self.pool, lo, hi, pool)
            if epoch != span_epoch:
                _fill(self.epoch, lo, hi, epoch)
            lo = hi

    def queue_range(
        self, lo: int, hi: int, node: int, pool: int = NO_POOL
    ) -> None:
        """PENDING → QUEUED at ``node`` (bounded per-node queue)."""
        _fill(self.state, lo, hi, int(FleetJobState.QUEUED))
        _fill(self.dest, lo, hi, node)
        _fill(self.pool, lo, hi, pool)

    def complete_range(self, lo: int, hi: int, now: float) -> None:
        """RUNNING → COMPLETED at ``now``."""
        _fill(self.state, lo, hi, int(FleetJobState.COMPLETED))
        _fill(self.finish, lo, hi, now)

    def shed_range(
        self, lo: int, hi: int, reason: ShedReason, now: float
    ) -> None:
        """Any live state → SHED with ``reason`` at ``now``."""
        _fill(self.state, lo, hi, int(FleetJobState.SHED))
        _fill(self.shed, lo, hi, SHED_REASON_CODE[reason])
        _fill(self.finish, lo, hi, now)

    def fail_range(self, lo: int, hi: int, now: float) -> None:
        """Resubmit budget exhausted → FAILED at ``now``."""
        _fill(self.state, lo, hi, int(FleetJobState.FAILED))
        _fill(self.finish, lo, hi, now)

    def resubmit_range(self, lo: int, hi: int) -> None:
        """Interrupted RUNNING/QUEUED → PENDING with one more hop."""
        _fill(self.state, lo, hi, int(FleetJobState.PENDING))
        _fill(self.dest, lo, hi, NO_NODE)
        _fill(self.start, lo, hi, NO_INSTANT)
        _fill(self.gpu, lo, hi, 0)
        _fill(self.pool, lo, hi, NO_POOL)
        _fill(self.epoch, lo, hi, 0)
        # Resubmits are rare (node failures only); the per-element
        # rewrite stays off the per-batch hot path.
        hops = self.hops
        hops[lo:hi] = array(hops.typecode, [h + 1 for h in hops[lo:hi]])

    # -- reads ----------------------------------------------------------- #
    def _prefix(self, name: str) -> np.ndarray:
        """Zero-copy numpy view of one column's logical prefix."""
        column = getattr(self, name)
        return np.frombuffer(column, dtype=column.typecode)[: self._n]

    def _batch_of(self, index: int) -> int:
        """The batch-table entry row ``index`` arrived in."""
        return bisect_right(self._batch_lo, index) - 1

    def arrival(self, index: int) -> tuple[int, float, float]:
        """``(tool, submit, deadline)`` job ``index`` arrived with.

        Every row of a [lo, hi) range the fleet handles shares them: a
        range never spans two arrival batches.
        """
        if not 0 <= index < self._n:
            raise IndexError(f"job row {index} out of range")
        batch = self._batch_of(index)
        return (
            self._batch_tool[batch],
            self._batch_submit[batch],
            self._batch_deadline[batch],
        )

    def _chunks(self) -> Iterator[tuple[int, int]]:
        """The logical prefix as [at, stop) steps of ``_DIGEST_CHUNK`` rows."""
        for at in range(0, self._n, _DIGEST_CHUNK):
            yield at, min(at + _DIGEST_CHUNK, self._n)

    def _expand(self, values: array, at: int, stop: int) -> np.ndarray:
        """One batch-table column as canonical per-row values of [at, stop).

        Each batch overlapping the range repeats its value once per row
        it has inside it; the first and last may be cut by the range.
        """
        first = self._batch_of(at)
        last = self._batch_of(stop - 1) + 1
        edges = np.empty(last - first + 1, dtype=np.int64)
        edges[:-1] = np.frombuffer(self._batch_lo, dtype=np.int64)[first:last]
        edges[0] = at
        edges[-1] = stop
        canonical = np.float64 if values.typecode == "d" else np.int64
        per_batch = np.frombuffer(values, dtype=values.typecode)[first:last]
        return np.repeat(per_batch.astype(canonical), np.diff(edges))

    def row(self, index: int) -> JobRow:
        """Materialise one job row (tests/debugging, not the hot path)."""
        tool, submit, deadline = self.arrival(index)
        shed_code = self.shed[index]
        return JobRow(
            index=index,
            state=FleetJobState(self.state[index]),
            tool=tool,
            submit=submit,
            deadline=deadline,
            destination=self.dest[index],
            hops=self.hops[index],
            shed=SHED_REASON_BY_CODE.get(shed_code),
            start=self.start[index],
            finish=self.finish[index],
            gpu=bool(self.gpu[index]),
            pool=self.pool[index],
            epoch=self.epoch[index],
        )

    def rows(self) -> Iterator[JobRow]:
        """All rows in index order (tests/debugging)."""
        for index in range(len(self)):
            yield self.row(index)

    def count_by_state(self) -> dict[str, int]:
        """Job counts per :class:`FleetJobState` name (only nonzero)."""
        column = self._prefix("state")
        counts = np.zeros(len(FleetJobState), dtype=np.int64)
        for at, stop in self._chunks():  # bincount widens what it counts
            counts += np.bincount(column[at:stop], minlength=len(counts))
        return {
            state.name: int(counts[state])
            for state in FleetJobState
            if counts[state]
        }

    def digest(self) -> str:
        """SHA-256 over the canonical per-row bytes — the bit-identity probe.

        Canonical means one int64 per job for every discrete field and
        one float64 for every instant, field after field in
        :data:`DIGEST_ORDER`, whatever width a column is stored at and
        whether the field is stored per row or per batch: narrow
        columns are widened and batch attributes expanded a bounded
        chunk at a time.  Two stores whose jobs went through equivalent
        transitions hash identically regardless of which implementation
        (columnar bulk ops or the per-job-object reference) produced
        them, of how the jobs were split into batches and of how much
        capacity either reserved.
        """
        per_batch = {
            "tool": self._batch_tool,
            "submit": self._batch_submit,
            "deadline": self._batch_deadline,
        }
        hasher = hashlib.sha256()
        for name in self.DIGEST_ORDER:
            if name in per_batch:
                for at, stop in self._chunks():
                    hasher.update(self._expand(per_batch[name], at, stop))
                continue
            column = self._prefix(name)
            for at, stop in self._chunks():
                chunk = column[at:stop]
                hasher.update(
                    chunk if chunk.itemsize == 8 else chunk.astype(np.int64)
                )
        return hasher.hexdigest()


def gpu_wait_percentile(
    store: JobStore,
    quantile: float,
    window_lo: float = 0.0,
    window_hi: float = float("inf"),
) -> float:
    """Queue-wait percentile of completed GPU jobs submitted in a window.

    Wait is ``start - submit`` (zero for immediately-placed jobs); the
    window filter lets tests compare policies inside a storm.  Returns
    0.0 when no matching jobs exist.
    """
    if not 0.0 < quantile <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {quantile}")
    gpu = store._prefix("gpu")
    state = store._prefix("state")
    start = store._prefix("start")
    found = []
    for at, stop in store._chunks():
        submit = store._expand(store._batch_submit, at, stop)
        wanted = (
            (gpu[at:stop] != 0)
            & (state[at:stop] == int(FleetJobState.COMPLETED))
            & (submit >= window_lo)
            & (submit < window_hi)
        )
        found.append(start[at:stop][wanted] - submit[wanted])
    waits = np.concatenate(found) if found else np.empty(0)
    if not waits.size:
        return 0.0
    rank = max(0, min(waits.size - 1, int(math.ceil(quantile * waits.size)) - 1))
    waits.partition(rank)
    return float(waits[rank])
