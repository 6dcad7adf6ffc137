"""Columnar job state for the fleet-scale simulation tier.

At fleet scale (1000 nodes × 8 GPUs × 1M jobs) per-job Python objects
are the bottleneck: a million ``GalaxyJob``-sized instances cost ~GBs of
allocator churn and force every state transition through attribute
access.  :class:`JobStore` is the struct-of-arrays answer, and it stores
*runs*, not rows.  Jobs are identified by row index (dense, append-only)
and the fleet never transitions less than a contiguous *[lo, hi)* row
range, so every field of a job is a constant of the range it was last
transitioned with: one stdlib ``array`` per field holds one entry per
such run, keyed by a sorted column of first rows, and the store's size
follows placements (36 bytes a node piece), not jobs.

A row has no run until its first transition.  That one appends (rows at
the table's end: arrival → start / queue / shed / CPU arm); a later one
finds its two boundaries with one ``bisect`` each and splits a run only
where the range cuts one (partial queue drain, re-placement after a
node failure).  What a job arrives with — ``tool``, ``submit``,
``deadline`` — never changes, so it lives once per
:meth:`JobStore.append_batch` in a batch table of the same shape.

The per-job-object reference model
(:mod:`repro.cluster.fleet_reference`) builds the same store from
single-row transitions, which is what lets the property tests assert
*bit-identical* state: :meth:`JobStore.digest` hashes the canonical
64-bit per-row view of every field, expanded from both tables a bounded
chunk of rows at a time, so a column's width, which table holds a field
and where the runs were cut are allocation details no digest can see.
"""

from __future__ import annotations

import hashlib
import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from enum import IntEnum
from itertools import islice
from operator import lt
from typing import Iterator

import numpy as np

from repro.cluster.autoscale import POOL_BASE, pool_of
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
#: Rows a store can index: the batch table's ``lo`` is a signed 64-bit
#: row index.
MAX_ROWS = 2**63 - 1


def check_row_count(jobs: int) -> None:
    """Refuse a day of more jobs than a store can index, before it runs."""
    if jobs > MAX_ROWS:
        raise ValueError(
            f"a fleet day holds at most {MAX_ROWS} jobs (a signed 64-bit "
            f"row index), got {jobs}"
        )

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


_PENDING, _QUEUED, _RUNNING, _COMPLETED, _SHED, _FAILED = map(int, FleetJobState)

#: One-entry columns of what every fresh run of a started span holds:
#: ``_RUN_STATE * count`` repeats in C, and ``extend`` of an array of
#: the same typecode is one copy.
_RUN_STATE = array("b", (_RUNNING,))
_RUN_HOPS = array("b", (0,))
_RUN_SHED = array("b", (NO_REASON,))
_RUN_FINISH = array("d", (NO_INSTANT,))
_RUN_GPU = (array("b", (0,)), array("b", (1,)))


def _fill(column: array, lo: int, hi: int, value: float) -> None:
    """``column[lo:hi] = value`` at the column's own width (C-level repeat)."""
    if hi - lo == 1:  # the common case: the range is one run
        column[lo] = value
    else:
        column[lo:hi] = array(column.typecode, (value,)) * (hi - lo)


def _pool(dest, base_nodes: int):
    """Node pool of a job at ``dest`` — one int or an int64 array alike:
    :data:`NO_POOL` at :data:`NO_NODE`, else :func:`pool_of`.  ``pool_of``
    reads ``NO_NODE`` (negative) as base pool, which the second term
    turns into ``NO_POOL``."""
    return pool_of(dest, base_nodes) + (dest == NO_NODE) * (NO_POOL - POOL_BASE)


#: Rows a result-time reader (:meth:`JobStore.digest`,
#: :func:`gpu_wait_percentile`) expands per step: a 512 KiB temporary
#: whatever the store's size.
_DIGEST_CHUNK = 1 << 16


class JobStore:
    """Struct-of-arrays job state with range-bulk transitions.

    Run table (parallel, one entry per row range that was transitioned
    together — 36 bytes a run):

    ========== ===== =================================================
    column     type  meaning
    ========== ===== =================================================
    lo         'q'   first row of the run, sorted (it ends where the
                     next begins, the last where transitioned rows do)
    state      'b'   :class:`FleetJobState`
    dest       'i'   destination node index (:data:`NO_NODE` = none/CPU)
    hops       'b'   resubmit chain length (PR-7 hop cap)
    shed       'b'   :data:`SHED_REASON_CODE` (:data:`NO_REASON` = none)
    start      'd'   last execution start (:data:`NO_INSTANT` = never)
    finish     'd'   terminal instant (:data:`NO_INSTANT` = not yet)
    gpu        'b'   1 when the last mapping landed on a GPU slot
    epoch      'i'   commission epoch of the destination node (0 = n/a)
    ========== ===== =================================================

    A job's node ``pool`` is not stored: it is a function of ``dest``
    (:data:`NO_POOL` without a node, else
    :func:`~repro.cluster.autoscale.pool_of` against ``base_nodes``,
    the base-pool size the store was built with; a static fleet passes
    its node count, so every node is base pool).  :meth:`row` and the
    digest derive it with the one rule, :func:`_pool`.

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
    Rows from ``_end`` up were never transitioned and have no run: they
    read as a fresh job, and a reader gives them one run first.
    """

    #: (column, typecode, value of a freshly submitted job).
    _SPECS = (
        ("state", "b", _PENDING),
        ("dest", "i", NO_NODE),
        ("hops", "b", 0),
        ("shed", "b", NO_REASON),
        ("start", "d", NO_INSTANT),
        ("finish", "d", NO_INSTANT),
        ("gpu", "b", 0),
        ("epoch", "i", 0),
    )

    #: Names of the per-run columns.
    COLUMNS = tuple(name for name, _code, _fresh in _SPECS)

    #: Every field of a job in digest order (also :class:`JobRow`'s):
    #: the per-run columns with the arrival attributes and the derived
    #: ``pool`` where the digest has always had them.
    DIGEST_ORDER = (
        "state", "tool", "submit", "deadline", "dest", "hops", "shed",
        "start", "finish", "gpu", "pool", "epoch",
    )

    __slots__ = (
        *COLUMNS, "_run_lo", "_end", "_base_nodes",
        "_batch_lo", "_batch_tool", "_batch_submit", "_batch_deadline", "_n",
    )

    def __init__(self, base_nodes: int) -> None:
        for name, code, _fresh in self._SPECS:
            setattr(self, name, array(code))
        self._run_lo = array("q")
        self._end = 0
        self._base_nodes = base_nodes
        self._batch_lo = array("q")
        self._batch_tool = array("h")
        self._batch_submit = array("d")
        self._batch_deadline = array("d")
        self._n = 0

    def __len__(self) -> int:
        return self._n

    @property
    def nbytes(self) -> int:
        """Bytes the run and batch tables hold, whatever ``len(store)``."""
        return sum(
            column.itemsize * len(column)
            for column in map(self.__getattribute__, JobStore.__slots__)
            if isinstance(column, array)
        )

    # -- appends -------------------------------------------------------- #
    @hot_path
    def append_batch(
        self, count: int, tool: int, submit: float, deadline: float
    ) -> tuple[int, int]:
        """Append ``count`` PENDING jobs of one class; returns [lo, hi).

        One batch-table entry and no run: a row has none until its
        first transition.
        """
        if count <= 0:
            raise ValueError(f"batch count must be positive, got {count}")
        if not 0 <= tool < MAX_TOOLS:
            raise ValueError(
                f"tool index must be in [0, {MAX_TOOLS}), got {tool}"
            )
        lo = self._n
        self._batch_lo.append(lo)
        self._batch_tool.append(tool)
        self._batch_submit.append(submit)
        self._batch_deadline.append(deadline)
        self._n = lo + count
        return lo, self._n

    # -- the run table --------------------------------------------------- #
    def _outside(self, lo: int, hi: object) -> IndexError:
        return IndexError(
            f"job rows [{lo}, {hi}) are not a range of the store's "
            f"[0, {self._n})"
        )

    def _cover(self, upto: int) -> None:
        """Give the never-transitioned rows below ``upto`` one fresh run."""
        if upto > self._end:
            self._run_lo.append(self._end)
            for name, _code, fresh in self._SPECS:
                getattr(self, name).append(fresh)
            self._end = upto

    def _cut(self, run: int, row: int) -> None:
        """Split run ``run - 1`` so that run ``run`` starts at ``row``."""
        self._run_lo.insert(run, row)
        for name in self.COLUMNS:
            column = getattr(self, name)
            column.insert(run, column[run - 1])

    def _runs(self, lo: int, hi: int) -> tuple[int, int]:
        """The run indices [first, last) holding exactly rows [lo, hi).

        Rows never transitioned get one fresh run up to ``hi`` (at the
        table's end, so an append); then each boundary is one ``bisect``
        and a run is split only where the range cuts one.  A range that
        is exactly one run (a completion, most drains) skips the second
        ``bisect``: the next run starts at ``hi``.
        """
        if not 0 <= lo < hi <= self._n:
            raise self._outside(lo, hi)
        if hi > self._end:
            self._cover(hi)
        los = self._run_lo
        first = bisect_right(los, lo) - 1
        if los[first] != lo:
            first += 1
            self._cut(first, lo)
        if hi == self._end:
            return first, len(los)
        last = first + 1
        if last < len(los) and los[last] == hi:
            return first, last
        last = bisect_right(los, hi, first) - 1
        if los[last] != hi:
            last += 1
            self._cut(last, hi)
        return first, last

    # -- range transitions ---------------------------------------------- #
    def start_range(
        self,
        lo: int,
        hi: int,
        node: int,
        now: float,
        gpu: bool,
        epoch: int = 0,
    ) -> None:
        """PENDING/QUEUED → RUNNING on ``node`` (``NO_NODE`` = CPU arm)."""
        self.start_span(now, [lo, hi], [node], [epoch], gpu)

    @hot_path
    def start_span(
        self,
        now: float,
        stops: list[int],
        nodes: list[int],
        epochs: list[int],
        gpu: bool = True,
    ) -> None:
        """Start consecutive node pieces of one placed span, at span cost.

        Piece ``i`` is rows ``[stops[i], stops[i + 1])`` on ``nodes[i]``
        under commission epoch ``epochs[i]``, so ``stops`` has one entry
        more than ``nodes`` and ``epochs``.  A fresh span at the table's
        end — every arrival's — appends its runs with one C-level copy
        per column however many pieces it has: a repeat of a one-entry
        array for the columns every fresh run shares, ``fromlist`` for
        the per-piece ones.  Rows that already have runs (queue drain,
        re-placement) are rewritten piece by piece.
        """
        lo, end, count = stops[0], stops[-1], len(nodes)
        if not (
            0 <= lo < end <= self._n
            and len(stops) == count + 1
            and len(epochs) == count
            # one piece is in order already: lo < end
            and (count == 1 or all(map(lt, stops, islice(stops, 1, None))))
        ):
            raise self._outside(lo, " / ".join(map(str, stops[1:])))
        on_gpu = 1 if gpu else 0
        if lo < self._end:
            for lo, hi, node, epoch in zip(
                stops, islice(stops, 1, None), nodes, epochs
            ):
                first, last = self._runs(lo, hi)
                if last - first == 1:  # one run: five item writes
                    self.state[first] = _RUNNING
                    self.dest[first] = node
                    self.start[first] = now
                    self.gpu[first] = on_gpu
                    self.epoch[first] = epoch
                    continue
                _fill(self.state, first, last, _RUNNING)
                _fill(self.dest, first, last, node)
                _fill(self.start, first, last, now)
                _fill(self.gpu, first, last, on_gpu)
                _fill(self.epoch, first, last, epoch)
            return
        self._cover(lo)
        self._run_lo.fromlist(stops[:-1])
        self.state.extend(_RUN_STATE * count)
        self.dest.fromlist(nodes)
        self.hops.extend(_RUN_HOPS * count)
        self.shed.extend(_RUN_SHED * count)
        self.start.extend(array("d", (now,)) * count)
        self.finish.extend(_RUN_FINISH * count)
        self.gpu.extend(_RUN_GPU[on_gpu] * count)
        self.epoch.fromlist(epochs)
        self._end = end

    def queue_range(self, lo: int, hi: int, node: int) -> None:
        """PENDING → QUEUED at ``node`` (bounded per-node queue)."""
        first, last = self._runs(lo, hi)
        _fill(self.state, first, last, _QUEUED)
        _fill(self.dest, first, last, node)

    def complete_range(self, lo: int, hi: int, now: float) -> None:
        """RUNNING → COMPLETED at ``now``."""
        first, last = self._runs(lo, hi)
        if last - first == 1:  # one run: two item writes
            self.state[first] = _COMPLETED
            self.finish[first] = now
            return
        _fill(self.state, first, last, _COMPLETED)
        _fill(self.finish, first, last, now)

    def shed_range(
        self, lo: int, hi: int, reason: ShedReason, now: float
    ) -> None:
        """Any live state → SHED with ``reason`` at ``now``."""
        first, last = self._runs(lo, hi)
        _fill(self.state, first, last, _SHED)
        _fill(self.shed, first, last, SHED_REASON_CODE[reason])
        _fill(self.finish, first, last, now)

    def fail_range(self, lo: int, hi: int, now: float) -> None:
        """Resubmit budget exhausted → FAILED at ``now``."""
        first, last = self._runs(lo, hi)
        _fill(self.state, first, last, _FAILED)
        _fill(self.finish, first, last, now)

    def resubmit_range(self, lo: int, hi: int) -> None:
        """Interrupted RUNNING/QUEUED → PENDING with one more hop."""
        first, last = self._runs(lo, hi)
        _fill(self.state, first, last, _PENDING)
        _fill(self.dest, first, last, NO_NODE)
        _fill(self.start, first, last, NO_INSTANT)
        _fill(self.gpu, first, last, 0)
        _fill(self.epoch, first, last, 0)
        hops = self.hops
        for run in range(first, last):
            hops[run] += 1

    # -- reads ----------------------------------------------------------- #
    def arrival(self, index: int) -> tuple[int, float, float]:
        """``(tool, submit, deadline)`` job ``index`` arrived with.

        Every row of a [lo, hi) range the fleet handles shares them: a
        range never spans two arrival batches.
        """
        if not 0 <= index < self._n:
            raise IndexError(f"job row {index} out of range")
        batch = bisect_right(self._batch_lo, index) - 1
        return (
            self._batch_tool[batch],
            self._batch_submit[batch],
            self._batch_deadline[batch],
        )

    def row(self, index: int) -> JobRow:
        """Materialise one job row (off the hot path: one ``bisect`` into
        each table and a dataclass per call)."""
        tool, submit, deadline = self.arrival(index)
        self._cover(self._n)
        run = bisect_right(self._run_lo, index) - 1
        dest = self.dest[run]
        return JobRow(
            index=index,
            state=FleetJobState(self.state[run]),
            tool=tool,
            submit=submit,
            deadline=deadline,
            destination=dest,
            hops=self.hops[run],
            shed=SHED_REASON_BY_CODE.get(self.shed[run]),
            start=self.start[run],
            finish=self.finish[run],
            gpu=bool(self.gpu[run]),
            pool=_pool(dest, self._base_nodes),
            epoch=self.epoch[run],
        )

    def rows(self) -> Iterator[JobRow]:
        """All rows in index order (tests/debugging)."""
        for index in range(len(self)):
            yield self.row(index)

    def _chunks(self) -> Iterator[tuple[int, int]]:
        """All rows as [at, stop) steps of ``_DIGEST_CHUNK`` rows."""
        for at in range(0, self._n, _DIGEST_CHUNK):
            yield at, min(at + _DIGEST_CHUNK, self._n)

    def _per_row(self, name: str, at: int, stop: int) -> np.ndarray:
        """Field ``name`` as canonical per-row values of rows [at, stop):
        each run (arrival batch, for what a job arrives with) repeats
        its value once per row it has in the range.  ``pool`` is derived
        from each run's ``dest`` before the repeat."""
        if name == "pool":
            los, values = self._run_lo, self.dest
        elif name in self.COLUMNS:
            los, values = self._run_lo, getattr(self, name)
        else:
            los, values = self._batch_lo, getattr(self, "_batch_" + name)
        first = bisect_right(los, at) - 1
        last = bisect_right(los, stop - 1)
        edges = np.empty(last - first + 1, dtype=np.int64)
        edges[:-1] = np.frombuffer(los, dtype=np.int64)[first:last]
        edges[0] = at
        edges[-1] = stop
        canonical = np.float64 if values.typecode == "d" else np.int64
        per_entry = np.frombuffer(values, dtype=values.typecode)[first:last]
        if name == "pool":
            per_entry = _pool(per_entry.astype(np.int64), self._base_nodes)
        return np.repeat(per_entry.astype(canonical, copy=False), np.diff(edges))

    def count_by_state(self) -> dict[str, int]:
        """Job counts per :class:`FleetJobState` name (only nonzero)."""
        self._cover(self._n)
        # each run weighs its rows; float64 counts exactly below 2**53
        counts = np.bincount(
            np.frombuffer(self.state, dtype=np.int8),
            weights=np.diff(
                np.frombuffer(self._run_lo, dtype=np.int64), append=self._n
            ),
            minlength=len(FleetJobState),
        )
        return {
            state.name: int(counts[state])
            for state in FleetJobState
            if counts[state]
        }

    def digest(self) -> str:
        """SHA-256 over the canonical per-row bytes — the bit-identity probe.

        Canonical means one int64 per job for every discrete field and
        one float64 for every instant, field after field in
        :data:`DIGEST_ORDER`.  Two stores whose jobs went through
        equivalent transitions hash identically regardless of which
        implementation (columnar bulk ops or the per-job-object
        reference) produced them, of how the jobs were split into
        batches and of where either cut its runs.
        """
        self._cover(self._n)
        hasher = hashlib.sha256()
        for name in self.DIGEST_ORDER:
            for at, stop in self._chunks():
                hasher.update(self._per_row(name, at, stop))
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
    store._cover(len(store))
    found = []
    for at, stop in store._chunks():
        submit = store._per_row("submit", at, stop)
        wanted = (
            (store._per_row("gpu", at, stop) != 0)
            & (store._per_row("state", at, stop) == _COMPLETED)
            & (submit >= window_lo)
            & (submit < window_hi)
        )
        found.append(store._per_row("start", at, stop)[wanted] - submit[wanted])
    waits = np.concatenate(found) if found else np.empty(0)
    if not waits.size:
        return 0.0
    rank = max(0, min(waits.size - 1, int(math.ceil(quantile * waits.size)) - 1))
    waits.partition(rank)
    return float(waits[rank])
