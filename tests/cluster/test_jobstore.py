"""Columnar :class:`JobStore`: range transitions, digests, encodings."""

import hashlib
import math
import struct
import tracemalloc
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

import repro.cluster.jobstore as jobstore
from repro.cluster.jobstore import (
    MAX_NODES,
    MAX_TOOLS,
    NO_INSTANT,
    NO_NODE,
    NO_POOL,
    NO_REASON,
    SHED_REASON_BY_CODE,
    SHED_REASON_CODE,
    FleetJobState,
    JobRow,
    JobStore,
    gpu_wait_percentile,
)
from repro.resilience.shedding import ShedReason
from repro.workloads.diurnal import AB_STORM_DURATION, AB_STORM_START


class TestAppend:
    def test_append_batch_returns_contiguous_range(self):
        store = JobStore(MAX_NODES)
        lo, hi = store.append_batch(5, tool=2, submit=10.0, deadline=70.0)
        assert (lo, hi) == (0, 5)
        lo2, hi2 = store.append_batch(3, tool=0, submit=20.0, deadline=80.0)
        assert (lo2, hi2) == (5, 8)
        assert len(store) == 8

    def test_appended_rows_are_pending_with_sentinels(self):
        store = JobStore(MAX_NODES)
        store.append_batch(2, tool=1, submit=5.0, deadline=65.0)
        row = store.row(1)
        assert row.state is FleetJobState.PENDING
        assert row.tool == 1
        assert row.submit == 5.0
        assert row.deadline == 65.0
        assert row.destination == NO_NODE
        assert row.hops == 0
        assert row.shed is None
        assert row.start == NO_INSTANT
        assert row.finish == NO_INSTANT
        assert row.gpu is False

    def test_empty_batch_rejected(self):
        store = JobStore(MAX_NODES)
        with pytest.raises(ValueError):
            store.append_batch(0, tool=0, submit=0.0, deadline=1.0)

    @pytest.mark.parametrize("tool", [-1, MAX_TOOLS, 2**40])
    def test_out_of_range_tool_rejected(self, tool):
        """Nothing but ``append_batch`` bounds a tool index: a bad one
        must not wrap into the batch table or leave half an entry."""
        store = JobStore(MAX_NODES)
        store.append_batch(2, tool=MAX_TOOLS - 1, submit=0.0, deadline=1.0)
        before = store.digest()
        with pytest.raises(ValueError, match="tool index"):
            store.append_batch(1, tool=tool, submit=0.0, deadline=1.0)
        assert len(store) == 2 and store.digest() == before
        assert store.append_batch(1, tool=0, submit=2.0, deadline=3.0) == (2, 3)
        assert [row.tool for row in store.rows()] == [MAX_TOOLS - 1] * 2 + [0]


class TestArrivalAttributesLivePerBatch:
    def test_row_resolves_its_batch_at_every_edge(self):
        store = JobStore(MAX_NODES)
        batches = [(4, 7, 1.5, 61.5), (1, 0, 2.5, 62.5), (3, 2, 2.5, 99.0)]
        for count, tool, submit, deadline in batches:
            store.append_batch(count, tool, submit, deadline)
        # first / middle / last row of a batch, and of a one-row batch
        expected = {0: 0, 2: 0, 3: 0, 4: 1, 5: 2, 6: 2, 7: 2}
        for index, batch in expected.items():
            _count, tool, submit, deadline = batches[batch]
            row = store.row(index)
            assert (row.index, row.tool, row.submit, row.deadline) == \
                (index, tool, submit, deadline)
            assert store.arrival(index) == (tool, submit, deadline)

    def test_arrival_outside_the_store_is_an_index_error(self):
        store = JobStore(MAX_NODES)
        for index in (0, -1):
            with pytest.raises(IndexError):
                store.arrival(index)
        store.append_batch(2, tool=1, submit=0.0, deadline=1.0)
        for index in (2, -1):
            with pytest.raises(IndexError):
                store.arrival(index)

    def test_transitions_never_touch_arrival_attributes(self):
        store = _scripted(JobStore(MAX_NODES))
        arrived = [(6, 1, 0.0, 60.0), (4, 0, 5.0, 65.0), (2, 2, 9.0, 69.0)]
        rows = iter(store.rows())
        for count, tool, submit, deadline in arrived:
            for _ in range(count):
                row = next(rows)
                assert (row.tool, row.submit, row.deadline) == \
                    (tool, submit, deadline)


class TestTransitions:
    def test_gpu_lifecycle(self):
        store = JobStore(MAX_NODES)
        store.append_batch(4, tool=0, submit=0.0, deadline=60.0)
        store.start_range(0, 4, node=7, now=1.0, gpu=True)
        assert store.row(2).state is FleetJobState.RUNNING
        assert store.row(2).destination == 7
        assert store.row(2).gpu is True
        store.complete_range(0, 4, now=11.0)
        assert store.row(0).state is FleetJobState.COMPLETED
        assert store.row(0).finish == 11.0

    def test_queue_then_partial_start(self):
        store = JobStore(MAX_NODES)
        store.append_batch(6, tool=1, submit=0.0, deadline=60.0)
        store.queue_range(0, 6, node=3)
        assert all(r.state is FleetJobState.QUEUED for r in store.rows())
        store.start_range(0, 2, node=3, now=5.0, gpu=True)
        assert store.row(1).state is FleetJobState.RUNNING
        assert store.row(2).state is FleetJobState.QUEUED

    def test_shed_records_reason(self):
        store = JobStore(MAX_NODES)
        store.append_batch(3, tool=0, submit=0.0, deadline=60.0)
        store.shed_range(0, 3, ShedReason.QUEUE_FULL, now=2.0)
        row = store.row(1)
        assert row.state is FleetJobState.SHED
        assert row.shed is ShedReason.QUEUE_FULL
        assert row.finish == 2.0

    def test_resubmit_increments_hops_and_resets_placement(self):
        store = JobStore(MAX_NODES)
        store.append_batch(2, tool=0, submit=0.0, deadline=60.0)
        store.start_range(0, 2, node=1, now=1.0, gpu=True)
        store.resubmit_range(0, 2)
        row = store.row(0)
        assert row.state is FleetJobState.PENDING
        assert row.hops == 1
        assert row.destination == NO_NODE
        assert row.start == NO_INSTANT
        assert row.gpu is False
        store.resubmit_range(0, 1)
        assert store.row(0).hops == 2
        assert store.row(1).hops == 1

    def test_fail_range_is_terminal(self):
        store = JobStore(MAX_NODES)
        store.append_batch(1, tool=0, submit=0.0, deadline=60.0)
        store.fail_range(0, 1, now=9.0)
        assert store.row(0).state is FleetJobState.FAILED
        assert store.row(0).finish == 9.0


class TestDigestAndCounts:
    def test_count_by_state_only_reports_nonzero(self):
        store = JobStore(MAX_NODES)
        store.append_batch(3, tool=0, submit=0.0, deadline=60.0)
        store.start_range(0, 1, node=0, now=0.0, gpu=True)
        assert store.count_by_state() == {"PENDING": 2, "RUNNING": 1}

    def test_digest_is_bitwise(self):
        a, b = JobStore(MAX_NODES), JobStore(MAX_NODES)
        for store in (a, b):
            store.append_batch(4, tool=1, submit=0.0, deadline=60.0)
            store.start_range(0, 4, node=2, now=1.0, gpu=True)
        assert a.digest() == b.digest()
        b.complete_range(3, 4, now=5.0)
        assert a.digest() != b.digest()

    def test_range_ops_equal_per_row_ops(self):
        """The columnar-vs-reference contract in miniature: one bulk
        range op and N single-row ops must produce identical bytes."""
        bulk, perjob = JobStore(MAX_NODES), JobStore(MAX_NODES)
        bulk.append_batch(8, tool=2, submit=3.0, deadline=63.0)
        perjob.append_batch(8, tool=2, submit=3.0, deadline=63.0)
        bulk.start_range(0, 8, node=5, now=4.0, gpu=True)
        for i in range(8):
            perjob.start_range(i, i + 1, node=5, now=4.0, gpu=True)
        bulk.complete_range(0, 4, now=10.0)
        for i in range(4):
            perjob.complete_range(i, i + 1, now=10.0)
        bulk.shed_range(4, 8, ShedReason.DEADLINE_EXPIRED, now=70.0)
        for i in range(4, 8):
            perjob.shed_range(i, i + 1, ShedReason.DEADLINE_EXPIRED, now=70.0)
        assert bulk.digest() == perjob.digest()


class TestShedEncoding:
    def test_codes_round_trip_every_reason(self):
        for reason in ShedReason:
            assert SHED_REASON_BY_CODE[SHED_REASON_CODE[reason]] is reason

    def test_codes_are_stable_definition_order(self):
        assert SHED_REASON_CODE[ShedReason.QUEUE_FULL] == 0
        # The only two codes the fleet writes, so in every store_digest.
        assert SHED_REASON_CODE[ShedReason.DEADLINE_EXPIRED] == 1
        assert len(SHED_REASON_CODE) == len(ShedReason)


def _scripted(store: JobStore) -> JobStore:
    """Drive ``store`` through every transition kind over three batches."""
    store.append_batch(6, tool=1, submit=0.0, deadline=60.0)
    store.append_batch(4, tool=0, submit=5.0, deadline=65.0)
    store.start_span(1.0, [0, 3, 5], [2, 7], [1, 4])
    store.queue_range(5, 6, node=7)
    store.start_range(6, 8, NO_NODE, 5.0, gpu=False)
    store.complete_range(0, 3, now=11.0)
    store.resubmit_range(3, 5)
    store.shed_range(8, 9, ShedReason.QUEUE_FULL, now=5.0)
    store.fail_range(9, 10, now=6.0)
    store.append_batch(2, tool=2, submit=9.0, deadline=69.0)
    return store


class TestNeverTransitionedRows:
    """A row has no run until its first transition; every reader still
    sees a fresh PENDING job there, and an empty store is defined."""

    def test_empty_store_and_fresh_tail_are_defined(self):
        store = JobStore(MAX_NODES)
        assert len(store) == store.nbytes == 0
        assert list(store.rows()) == []
        assert store.count_by_state() == {}
        assert store.digest() == hashlib.sha256().hexdigest()
        assert gpu_wait_percentile(store, 0.95) == 0.0
        store.append_batch(2, tool=0, submit=0.0, deadline=60.0)
        assert store.count_by_state() == {"PENDING": 2}
        assert gpu_wait_percentile(store, 0.95) == 0.0
        assert store.digest() == canonical_digest(list(store.rows()))
        with pytest.raises(IndexError):
            store.row(2)
        with pytest.raises(IndexError):
            store.row(-1)
        # Reading the tail does not pin it: it transitions like any row.
        store.append_batch(3, tool=1, submit=1.0, deadline=61.0)
        store.start_range(1, 4, node=7, now=2.0, gpu=True)
        assert [row.state.name for row in store.rows()] == \
            ["PENDING"] + ["RUNNING"] * 3 + ["PENDING"]
        assert store.row(4).destination == NO_NODE


TRANSITIONS = {
    "start_range": lambda store, lo, hi:
        store.start_range(lo, hi, node=1, now=1.0, gpu=True),
    "start_span": lambda store, lo, hi:
        store.start_span(1.0, [lo, hi], [1], [1]),
    "queue_range": lambda store, lo, hi: store.queue_range(lo, hi, node=1),
    "complete_range": lambda store, lo, hi: store.complete_range(lo, hi, 1.0),
    "shed_range": lambda store, lo, hi:
        store.shed_range(lo, hi, ShedReason.QUEUE_FULL, 1.0),
    "fail_range": lambda store, lo, hi: store.fail_range(lo, hi, 1.0),
    "resubmit_range": lambda store, lo, hi: store.resubmit_range(lo, hi),
}


class TestTransitionsStayInsideTheStore:
    def test_a_range_outside_the_store_is_an_index_error(self):
        """``complete_range(5, 20, t)`` on ten rows used to grow two
        columns to twenty entries: the next batch arrived COMPLETED and
        ``rows()`` died on the columns that had not grown."""
        outside = [(5, 20), (10, 11), (0, 11), (-1, 3), (3, 3), (4, 2)]
        for name, transition in TRANSITIONS.items():
            for transitioned in (0, 4, 10):  # no run yet, some, all
                store = JobStore(MAX_NODES)
                store.append_batch(10, tool=0, submit=0.0, deadline=60.0)
                if transitioned:
                    store.queue_range(0, transitioned, node=3)
                before = list(store.rows())
                for lo, hi in outside:
                    with pytest.raises(IndexError, match="not a range of"):
                        transition(store, lo, hi)
                assert list(store.rows()) == before, name
                store.append_batch(2, tool=0, submit=1.0, deadline=61.0)
                assert [row.state for row in store.rows()][10:] == \
                    [FleetJobState.PENDING] * 2, name
                transition(store, 0, 12)  # the whole store is a range

    @pytest.mark.parametrize("transitioned", [0, 6])
    def test_span_pieces_out_of_row_order_are_an_index_error(
        self, transitioned
    ):
        store = JobStore(MAX_NODES)
        store.append_batch(10, tool=0, submit=0.0, deadline=60.0)
        if transitioned:
            store.queue_range(0, transitioned, node=3)
        before = list(store.rows())
        for stops, nodes in (([2, 6, 4, 10], [1, 2, 3]),
                             ([2, 4, 4], [1, 2]),
                             ([2, 2], [1]),
                             ([2, 4, 6], [1])):  # a stop without a node
            with pytest.raises(IndexError):
                store.start_span(1.0, stops, nodes, [1] * len(nodes))
        assert list(store.rows()) == before

    @pytest.mark.parametrize("transitioned", [0, 6], ids=["append", "rewrite"])
    @pytest.mark.parametrize("epochs", [[1], [1, 4, 2]], ids=["short", "long"])
    def test_span_epochs_unlike_its_pieces_are_an_index_error(
        self, transitioned, epochs
    ):
        """``epochs`` once went unchecked: a short list left the fresh
        run table a column short (the digest died on a NumPy broadcast),
        and on the rewrite path ``zip`` dropped the pieces it lacked."""
        store = JobStore(MAX_NODES)
        store.append_batch(10, tool=0, submit=0.0, deadline=60.0)
        if transitioned:
            store.queue_range(0, transitioned, node=3)
        before = list(store.rows())
        with pytest.raises(IndexError, match="not a range of"):
            store.start_span(1.0, [2, 5, 8], [2, 7], epochs)
        assert list(store.rows()) == before
        assert store.digest() == canonical_digest(before)


class TestOneRunRanges:
    """``_runs`` skips its second ``bisect`` when the next run starts at
    ``hi``; ``complete_range`` and ``start_span``'s rewrite path write a
    one-run range item by item.  Neither may change which runs a range
    gets or what any row reads."""

    #: Four runs [0, 4) [4, 9) [9, 15) [15, 20) under one span, then ten
    #: rows that were never transitioned: ``_end`` is 20.
    STOPS = [0, 4, 9, 15, 20]

    def build(self):
        store, model = JobStore(MAX_NODES), RowModel()
        for target in (store, model):
            target.append_batch(20, tool=1, submit=2.5, deadline=62.5)
            target.start_span(3.0, self.STOPS, [1, 2, 3, 4], [1, 1, 2, 2])
            target.append_batch(10, tool=0, submit=4.0, deadline=64.0)
        return store, model

    @pytest.mark.parametrize("lo, hi, runs, run_count", [
        (4, 9, (1, 2), 4),    # exactly one run
        (4, 7, (1, 2), 5),    # ends inside a run: still cut
        (5, 9, (2, 3), 5),    # starts inside one, ends where the next begins
        (15, 18, (3, 4), 5),  # ends inside the last run
        (4, 15, (1, 3), 4),   # covers two runs
        (9, 20, (2, 4), 4),   # ends at ``_end``
        (15, 20, (3, 4), 4),  # the last run, up to ``_end``
    ], ids=["one-run", "cut-end", "cut-start", "cut-last", "two-runs",
            "to-end", "last-run"])
    def test_runs_against_a_per_row_model(self, lo, hi, runs, run_count):
        store, model = self.build()
        assert store._end == 20 and len(store._run_lo) == 4
        assert store._runs(lo, hi) == runs
        assert len(store._run_lo) == run_count
        assert list(store.rows()) == model.rows  # a cut changes no row
        store.complete_range(lo, hi, 7.25)
        model.complete_range(lo, hi, 7.25)
        assert list(store.rows()) == model.rows
        assert store.digest() == canonical_digest(model.rows)

    @staticmethod
    def columns(store):
        return {name: getattr(store, name) for name in JobStore.COLUMNS}

    def test_complete_range_equals_fill_on_one_run(self):
        now = 0.1 + 0.2  # not integral, not 0.3
        store, _model = self.build()
        filled, _model = self.build()
        store.complete_range(4, 9, now)
        first, last = filled._runs(4, 9)
        assert last - first == 1
        jobstore._fill(filled.state, first, last, int(FleetJobState.COMPLETED))
        jobstore._fill(filled.finish, first, last, now)
        assert self.columns(store) == self.columns(filled)
        assert store.row(6).finish.hex() == now.hex()

    @pytest.mark.parametrize("gpu", [True, False])
    def test_start_span_rewrite_equals_fill_on_one_run(self, gpu):
        now = 1 / 3
        store, _model = self.build()
        filled, _model = self.build()
        for target in (store, filled):
            target.queue_range(20, 25, node=5)
        store.start_span(now, [20, 25], [6], [3], gpu)
        first, last = filled._runs(20, 25)
        assert last - first == 1
        for name, value in (("state", int(FleetJobState.RUNNING)),
                            ("dest", 6), ("start", now),
                            ("gpu", int(gpu)), ("epoch", 3)):
            jobstore._fill(getattr(filled, name), first, last, value)
        assert self.columns(store) == self.columns(filled)
        assert store.row(22).start.hex() == now.hex()
        assert store.row(22).gpu is gpu


def canonical_digest(rows) -> str:
    """SHA-256 over int64/float64 columns ``struct.pack``ed from a list
    of :class:`JobRow` alone — no store, no numpy, no ``array``."""
    columns = [
        ("q", [int(row.state) for row in rows]),
        ("q", [row.tool for row in rows]),
        ("d", [row.submit for row in rows]),
        ("d", [row.deadline for row in rows]),
        ("q", [row.destination for row in rows]),
        ("q", [row.hops for row in rows]),
        ("q", [NO_REASON if row.shed is None
               else SHED_REASON_CODE[row.shed] for row in rows]),
        ("d", [row.start for row in rows]),
        ("d", [row.finish for row in rows]),
        ("q", [int(row.gpu) for row in rows]),
        ("q", [row.pool for row in rows]),
        ("q", [row.epoch for row in rows]),
    ]
    hasher = hashlib.sha256()
    for code, column in columns:
        hasher.update(struct.pack(f"={len(column)}{code}", *column))
    return hasher.hexdigest()


def naive_waits(rows, window_lo=0.0, window_hi=float("inf")):
    """Sorted waits of the completed GPU jobs submitted in a window."""
    return sorted(
        row.start - row.submit
        for row in rows
        if row.gpu
        and row.state is FleetJobState.COMPLETED
        and window_lo <= row.submit < window_hi
    )


def naive_percentile(waits, quantile):
    if not waits:
        return 0.0
    rank = max(0, min(len(waits) - 1, int(math.ceil(quantile * len(waits))) - 1))
    return waits[rank]


def naive_gpu_wait_percentile(rows, quantile, *window):
    """The pre-vectorisation implementation over plain rows, kept as
    the reference."""
    return naive_percentile(naive_waits(rows, *window), quantile)


class RowModel:
    """The per-row store the run table replaced, as plain as it gets:
    one :class:`JobRow` per job in a list, every transition a rewrite
    of the rows in its range.  ``pool`` follows the destination: none
    without a node, else elastic (1) from ``base_nodes`` up."""

    def __init__(self, base_nodes=MAX_NODES):
        self.rows = []
        self.base_nodes = base_nodes

    def pool(self, node):
        return NO_POOL if node == NO_NODE else int(node >= self.base_nodes)

    def append_batch(self, count, tool, submit, deadline):
        lo = len(self.rows)
        self.rows += [
            JobRow(index=index, state=FleetJobState.PENDING, tool=tool,
                   submit=submit, deadline=deadline, destination=NO_NODE,
                   hops=0, shed=None, start=NO_INSTANT, finish=NO_INSTANT,
                   gpu=False, pool=NO_POOL, epoch=0)
            for index in range(lo, lo + count)
        ]
        return lo, lo + count

    def _write(self, lo, hi, **fields):
        if "destination" in fields:
            fields["pool"] = self.pool(fields["destination"])
        self.rows[lo:hi] = [replace(row, **fields) for row in self.rows[lo:hi]]

    def start_span(self, now, stops, nodes, epochs, gpu=True):
        for lo, hi, node, epoch in zip(stops, stops[1:], nodes, epochs):
            self._write(lo, hi, state=FleetJobState.RUNNING, destination=node,
                        start=now, gpu=gpu, epoch=epoch)

    def queue_range(self, lo, hi, node):
        self._write(lo, hi, state=FleetJobState.QUEUED, destination=node)

    def complete_range(self, lo, hi, now):
        self._write(lo, hi, state=FleetJobState.COMPLETED, finish=now)

    def shed_range(self, lo, hi, reason, now):
        self._write(lo, hi, state=FleetJobState.SHED, shed=reason, finish=now)

    def fail_range(self, lo, hi, now):
        self._write(lo, hi, state=FleetJobState.FAILED, finish=now)

    def resubmit_range(self, lo, hi):
        self.rows[lo:hi] = [
            replace(row, state=FleetJobState.PENDING, destination=NO_NODE,
                    start=NO_INSTANT, gpu=False, pool=self.pool(NO_NODE),
                    epoch=0, hops=row.hops + 1)
            for row in self.rows[lo:hi]
        ]


QUANTILES = (0.01, 0.5, 0.95, 0.999, 1.0)


def assert_store_equals_rows(store, rows, windows, materialised=None):
    """Everything a :class:`JobStore` can be asked, against plain rows.

    ``materialised`` bounds how many trailing rows are compared as
    :class:`JobRow` objects; the digest compares every field of every
    row either way."""
    assert len(store) == len(rows)
    compared = rows[-materialised:] if materialised else rows
    assert [store.row(row.index) for row in compared] == compared
    assert store.count_by_state() == dict(
        Counter(row.state.name for row in rows)
    )
    for window in windows:
        waits = naive_waits(rows, *window)
        for quantile in QUANTILES:
            ours = gpu_wait_percentile(store, quantile, *window)
            assert type(ours) is float
            assert ours == naive_percentile(waits, quantile)
    assert store.digest() == canonical_digest(rows)


instants = st.integers(0, 400).map(lambda quarter: quarter / 4)
nodes = st.integers(0, 9)
epochs = st.integers(0, 3)


class RunTableMachine(RuleBasedStateMachine):
    """ROADMAP 5b: the run table and :class:`RowModel` take the same
    random transitions — whole batches, sub-ranges that cut runs, ranges
    over several runs, single rows (the oracle's traffic), fresh rows
    at the table's end and rows mid-table — and must never differ."""

    WINDOWS = ((0.0, float("inf")), (25.0, 75.0), (50.0, 50.5))
    REAL_CHUNK = jobstore._DIGEST_CHUNK

    def __init__(self):
        super().__init__()
        self.store = JobStore(MAX_NODES)
        self.model = RowModel()

    def both(self, method, *args):
        results = [getattr(target, method)(*args)
                   for target in (self.store, self.model)]
        assert results[0] == results[1]

    @initialize(chunk=st.sampled_from((5, 32, 256) * 2 + (REAL_CHUNK,)),
                base_nodes=st.one_of(st.integers(0, 11), st.just(MAX_NODES)))
    def chunked(self, chunk, base_nodes):
        """Readers chunk every few rows — or at the real size, with one
        batch that ends just short of the seam so the drawn ranges
        (always near the table's end) work across it.  The base pool
        ends at a drawn node, or spans every node (the default)."""
        self.store = JobStore(base_nodes)
        self.model = RowModel(base_nodes)
        jobstore._DIGEST_CHUNK = chunk
        if chunk == self.REAL_CHUNK:
            self.both("append_batch", chunk - 9, 0, 50.0, 110.0)

    @invariant()
    def store_equals_model(self):
        if jobstore._DIGEST_CHUNK != self.REAL_CHUNK:
            assert_store_equals_rows(self.store, self.model.rows, self.WINDOWS)

    def teardown(self):
        try:  # 65 536 rows are compared once, not after every step
            if jobstore._DIGEST_CHUNK == self.REAL_CHUNK:
                assert_store_equals_rows(
                    self.store, self.model.rows, self.WINDOWS,
                    materialised=2_000,
                )
        finally:
            jobstore._DIGEST_CHUNK = self.REAL_CHUNK

    def draw_range(self, data):
        rows = len(self.model.rows)
        lo = data.draw(st.integers(max(0, rows - 60), rows - 1), label="lo")
        length = data.draw(st.one_of(st.just(1), st.integers(1, 40)))
        return lo, min(rows, lo + length)

    def draw_pieces(self, data, lo, hi):
        """``(stops, nodes, epochs)`` of a span over rows [lo, hi)."""
        stops = [lo, *sorted(data.draw(
            st.sets(st.integers(lo + 1, hi), max_size=4), label="cuts"
        ) | {hi})]
        count = len(stops) - 1
        return (stops, [data.draw(nodes) for _ in range(count)],
                [data.draw(epochs) for _ in range(count)])

    @rule(count=st.integers(1, 30), tool=st.integers(0, 5), submit=instants,
          ttl=instants)
    def append_batch(self, count, tool, submit, ttl):
        self.both("append_batch", count, tool, submit, submit + ttl)

    has_rows = precondition(lambda self: self.model.rows)

    @has_rows
    @rule(data=st.data(), now=instants, gpu=st.booleans())
    def start_span(self, data, now, gpu):
        lo, hi = self.draw_range(data)
        self.both("start_span", now, *self.draw_pieces(data, lo, hi), gpu)

    @precondition(lambda self: self.store._end < len(self.store))
    @rule(data=st.data(), now=instants, served=st.integers(0, 40))
    def start_fresh_span(self, data, now, served):
        """The fleet's own traffic: a multi-piece span over rows nothing
        has touched, pieces differing in node, pool and epoch, then one
        completion over however many of its runs."""
        lo, hi = self.store._end, len(self.store)
        hi = data.draw(st.integers(lo + 1, min(hi, lo + 40)), label="hi")
        self.both("start_span", now, *self.draw_pieces(data, lo, hi))
        if served:
            self.both("complete_range", lo, min(hi, lo + served), now + 30.0)

    @has_rows
    @rule(data=st.data(), node=nodes)
    def queue_range(self, data, node):
        self.both("queue_range", *self.draw_range(data), node)

    @has_rows
    @rule(data=st.data(), now=instants)
    def complete_range(self, data, now):
        self.both("complete_range", *self.draw_range(data), now)

    @has_rows
    @rule(data=st.data(), reason=st.sampled_from(ShedReason), now=instants)
    def shed_range(self, data, reason, now):
        self.both("shed_range", *self.draw_range(data), reason, now)

    @has_rows
    @rule(data=st.data(), now=instants)
    def fail_range(self, data, now):
        self.both("fail_range", *self.draw_range(data), now)

    @has_rows
    @rule(data=st.data())
    def resubmit_range(self, data):
        self.both("resubmit_range", *self.draw_range(data))



TestRunTableEqualsPerRowModel = RunTableMachine.TestCase
TestRunTableEqualsPerRowModel.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None
)


class TestCanonicalDigest:
    """Columns are stored narrow; the digest is of their 64-bit view, so
    no recorded digest depends on a storage width."""

    def test_a_run_is_36_bytes(self):
        store = JobStore(MAX_NODES)
        store.append_batch(90, tool=1, submit=0.0, deadline=1.0)
        store.append_batch(10_000, tool=2, submit=1.0, deadline=2.0)
        # An append writes one batch entry however many rows it adds,
        # and arrival attributes have no per-run storage at all.
        assert store.nbytes == 2 * (8 + 2 + 8 + 8)
        # ``pool`` is derived from ``dest``: stored nowhere.
        assert set(JobStore.DIGEST_ORDER) - set(JobStore.COLUMNS) == \
            {"tool", "submit", "deadline", "pool"}
        assert not any(hasattr(store, name)
                       for name in ("tool", "submit", "deadline", "pool"))
        store.start_span(0.0, [0, 40, 90], [1, 2], [1, 1])
        store.complete_range(0, 90, now=5.0)  # both runs, no new one
        assert store.nbytes == 2 * 26 + 2 * 36
        assert all(getattr(store, name).itemsize == 8
                   for name in ("start", "finish"))

    @pytest.mark.parametrize("untouched", [0, 1000])
    def test_digest_is_sha256_of_the_64_bit_columns(self, untouched):
        """Whether or not the store ends in rows that have no run."""
        store = _scripted(JobStore(base_nodes=5))
        if untouched:
            store.append_batch(untouched, tool=4, submit=9.5, deadline=70.0)
        rows = list(store.rows())
        assert {row.state for row in rows} == set(FleetJobState)
        assert {row.pool for row in rows} == {NO_POOL, 0, 1}
        assert store.digest() == canonical_digest(rows)

    @pytest.mark.parametrize("length", [0, 1, 3, 4, 5, 8, 9])
    def test_chunked_widening_has_no_seams(self, monkeypatch, length):
        monkeypatch.setattr(jobstore, "_DIGEST_CHUNK", 4)
        store = JobStore(base_nodes=102)
        for i in range(length):  # every row differs in a narrow column
            store.append_batch(1, tool=i, submit=float(i), deadline=i + 60.0)
            store.start_range(i, i + 1, node=100 + i, now=float(i), gpu=True,
                              epoch=i + 1)
        assert store.digest() == canonical_digest(list(store.rows()))

    def test_the_real_chunk_seam_is_hashed(self):
        """Both tables are expanded chunk by chunk: the seam may cut a
        batch or a run, sit on an edge, or trail one by a row."""
        chunk = jobstore._DIGEST_CHUNK
        layouts = {
            "seam mid-batch": (chunk - 9, 20, 5),
            "seam one row past a batch edge": (chunk - 9, 8, 5),
            "seam on a batch edge": (chunk - 9, 9, 5),
            "seam one row before a batch edge": (chunk - 9, 10, 5),
            "one-row batches around the seam": (chunk - 1, 1, 1),
        }
        for label, counts in layouts.items():
            store, model = JobStore(MAX_NODES), RowModel()
            digests = set()
            for number, count in enumerate(counts):
                for target in (store, model):
                    lo, hi = target.append_batch(
                        count, 3 + number, 1.0 + number, 2.5 * (number + 1),
                    )
                    # the batch's last row leaves its run, the rest have none
                    target.queue_range(hi - 1, hi, hi)
                digests.add(store.digest())
            assert len(store) > chunk and len(digests) == 3, label
            assert store.digest() == canonical_digest(model.rows), label


class TestStartSpan:
    def test_span_equals_one_start_range_per_piece(self):
        span, ranges = JobStore(base_nodes=5), JobStore(base_nodes=5)
        for store in (span, ranges):
            store.append_batch(10, tool=3, submit=2.0, deadline=62.0)
        stops, nodes, epochs = [0, 4, 6, 9, 10], [0, 9, 1, 2], [1, 3, 2, 1]
        span.start_span(2.0, stops, nodes, epochs)
        for lo, hi, node, epoch in zip(stops, stops[1:], nodes, epochs):
            ranges.start_range(lo, hi, node, 2.0, gpu=True, epoch=epoch)
        assert span.digest() == ranges.digest()
        rows = list(span.rows())
        assert [row.destination for row in rows] == [0] * 4 + [9] * 2 + [1] * 3 + [2]
        assert all(row.gpu and row.start == 2.0 for row in rows)
        # Each piece keeps its own epoch and its node's pool.
        assert (span.row(5).pool, span.row(5).epoch) == (1, 3)
        assert (span.row(8).pool, span.row(8).epoch) == (0, 2)
        assert (span.row(9).pool, span.row(9).epoch) == (0, 1)

    @pytest.mark.parametrize("gpu", [True, False])
    def test_a_64_piece_span_equals_one_start_range_per_piece(self, gpu):
        span, ranges = JobStore(base_nodes=40), JobStore(base_nodes=40)
        for store in (span, ranges):
            store.append_batch(5, tool=1, submit=0.0, deadline=60.0)
            store.complete_range(0, 5, now=3.0)  # the span lands at the end
            store.append_batch(300, tool=2, submit=1.0, deadline=61.0)
        stops = [5 + 4 * piece + piece % 3 for piece in range(64)] + [305]
        nodes = [(7 * piece) % 80 for piece in range(64)]
        epochs = [1 + piece % 5 for piece in range(64)]
        span.start_span(2.5, stops, nodes, epochs, gpu)
        for lo, hi, node, epoch in zip(stops, stops[1:], nodes, epochs):
            ranges.start_range(lo, hi, node, 2.5, gpu=gpu, epoch=epoch)
        assert list(span.rows()) == list(ranges.rows())
        assert span.digest() == ranges.digest()
        assert span.nbytes == ranges.nbytes == 65 * 36 + 2 * 26
        assert {row.gpu for row in span.rows()} == {False, gpu}

    @pytest.mark.parametrize("pieces", [1, 3])
    def test_a_non_integral_start_reads_back_bit_equal(self, pieces):
        now = 0.1 + 0.2  # 0.30000000000000004, not 0.3
        store = JobStore(MAX_NODES)
        store.append_batch(6, tool=0, submit=0.0, deadline=60.0)
        stops = [0, *range(6 - pieces + 1, 6), 6]
        store.start_span(now, stops, [1] * pieces, [1] * pieces)
        assert all(row.start.hex() == now.hex() for row in store.rows())

    @settings(max_examples=60, deadline=None)
    @given(spans=st.lists(st.tuples(
        st.integers(0, 3),  # rows left PENDING before the span
        st.lists(st.integers(1, 5), min_size=1, max_size=20),  # pieces
        st.booleans(),
    ), min_size=1, max_size=8))
    def test_every_run_column_keeps_one_entry_per_run(self, spans):
        store = JobStore(MAX_NODES)
        for skipped, counts, gpu in spans:
            lo, hi = store.append_batch(
                skipped + sum(counts), tool=0, submit=0.0, deadline=1.0
            )
            stops = [lo + skipped]
            for count in counts:
                stops.append(stops[-1] + count)
            store.start_span(1.0, stops, [2] * len(counts),
                             [1] * len(counts), gpu)
            runs = len(store._run_lo)
            assert [len(getattr(store, name)) for name in JobStore.COLUMNS] \
                == [runs] * len(JobStore.COLUMNS)
            assert store._end == hi

    def test_span_leaves_rows_outside_alone(self):
        store = JobStore(MAX_NODES)
        store.append_batch(6, tool=0, submit=0.0, deadline=60.0)
        store.start_span(1.0, [2, 4], [5], [1])
        states = [row.state for row in store.rows()]
        assert states == [FleetJobState.PENDING] * 2 + \
            [FleetJobState.RUNNING] * 2 + [FleetJobState.PENDING] * 2


class TestGpuWaitPercentile:
    @pytest.fixture(scope="class")
    def storm_store(self):
        from repro.cluster.fleet import FleetConfig, FleetSimulator
        from repro.workloads.diurnal import ab_storm_profile, diurnal_batches

        profile = ab_storm_profile(8_000)
        config = FleetConfig(nodes=12, gpus_per_node=4, queue_limit=8)
        simulator = FleetSimulator(config, profile.tools)
        simulator.run(diurnal_batches(profile))
        return simulator.store

    @pytest.fixture(scope="class")
    def storm_rows(self, storm_store):
        return list(storm_store.rows())

    @pytest.mark.parametrize("quantile", [0.01, 0.5, 0.95, 0.999, 1.0])
    @pytest.mark.parametrize("window", [
        (0.0, float("inf")),
        (AB_STORM_START, AB_STORM_START + AB_STORM_DURATION),
        (AB_STORM_START + 600.0, AB_STORM_START + 660.0),
    ])
    def test_bit_equal_to_naive_reference(
        self, storm_store, storm_rows, quantile, window
    ):
        ours = gpu_wait_percentile(storm_store, quantile, *window)
        theirs = naive_gpu_wait_percentile(storm_rows, quantile, *window)
        assert type(ours) is float
        assert ours == theirs

    def test_count_by_state_equals_a_per_row_count(
        self, storm_store, storm_rows
    ):
        counted = Counter(row.state.name for row in storm_rows)
        assert len(counted) > 1
        assert storm_store.count_by_state() == dict(counted)

    def test_chunk_seams_move_no_result(self, storm_store, monkeypatch):
        """The readers walk the store in chunks; a chunk size that cuts
        the storm's batches anywhere must not change what they return."""
        windows = [
            (0.0, float("inf")),
            (AB_STORM_START, AB_STORM_START + AB_STORM_DURATION),
        ]
        def results():
            return (
                [gpu_wait_percentile(storm_store, quantile, *window)
                 for window in windows for quantile in (0.01, 0.5, 0.95, 1.0)],
                storm_store.count_by_state(),
                storm_store.digest(),
            )

        whole = results()
        for chunk in (7, 257, len(storm_store) - 1):
            monkeypatch.setattr(jobstore, "_DIGEST_CHUNK", chunk)
            assert results() == whole, chunk

    def test_storm_fixture_has_real_waits(self, storm_rows):
        lo, hi = AB_STORM_START, AB_STORM_START + AB_STORM_DURATION
        assert naive_gpu_wait_percentile(storm_rows, 0.95, lo, hi) > 0.0

    def test_empty_window_is_zero(self, storm_store):
        assert gpu_wait_percentile(storm_store, 0.95, 1e9, 2e9) == 0.0
        assert gpu_wait_percentile(storm_store, 0.95, 500.0, 500.0) == 0.0
        assert gpu_wait_percentile(JobStore(MAX_NODES), 0.5) == 0.0

    def test_quantile_validated(self, storm_store):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                gpu_wait_percentile(storm_store, bad)


@pytest.mark.perf_guard
def test_result_time_readers_allocate_no_whole_column():
    """Memory guard, as a number the store reports and not as RSS: the
    seed-42 1000x8 static day (1.1 M jobs) is ~67 k runs and 7 200
    batches, 2.6 MiB; a per-job column alone is 1-8 MiB.  The three
    result-time readers work a chunk of rows at a time, so their
    temporaries peak under 4 MiB whatever the day's size."""
    from repro.cluster.fleet import FleetConfig, FleetSimulator
    from repro.workloads.diurnal import (
        AB_STORM_DURATION, AB_STORM_START, DiurnalProfile, diurnal_batches,
    )

    profile = DiurnalProfile(seed=42).scaled_to(1_100_000)
    simulator = FleetSimulator(FleetConfig(nodes=1000, gpus_per_node=8),
                               profile.tools)
    result = simulator.run(diurnal_batches(profile))
    store = simulator.store
    assert len(store) == result.jobs_submitted > 1_000_000
    assert store.nbytes < 6 * 2**20, f"store is {store.nbytes / 2**20:.1f} MiB"
    tracemalloc.start()
    try:
        counts = store.count_by_state()
        digest = store.digest()
        gpu_wait_percentile(store, 0.95, AB_STORM_START,
                            AB_STORM_START + AB_STORM_DURATION)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counts == result.states and digest == result.store_digest
    assert peak < 4 * 2**20, f"readers peaked at {peak / 2**20:.1f} MiB"
