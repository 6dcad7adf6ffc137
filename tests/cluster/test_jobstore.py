"""Columnar :class:`JobStore`: range transitions, digests, encodings."""

import hashlib
import math
import tracemalloc
from array import array
from collections import Counter

import pytest

import repro.cluster.jobstore as jobstore
from repro.cluster.jobstore import (
    MAX_TOOLS,
    NO_INSTANT,
    NO_NODE,
    NO_REASON,
    SHED_REASON_BY_CODE,
    SHED_REASON_CODE,
    FleetJobState,
    JobStore,
    gpu_wait_percentile,
)
from repro.resilience.shedding import ShedReason
from repro.workloads.diurnal import AB_STORM_DURATION, AB_STORM_START


class TestAppend:
    def test_append_batch_returns_contiguous_range(self):
        store = JobStore()
        lo, hi = store.append_batch(5, tool=2, submit=10.0, deadline=70.0)
        assert (lo, hi) == (0, 5)
        lo2, hi2 = store.append_batch(3, tool=0, submit=20.0, deadline=80.0)
        assert (lo2, hi2) == (5, 8)
        assert len(store) == 8

    def test_appended_rows_are_pending_with_sentinels(self):
        store = JobStore()
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
        store = JobStore()
        with pytest.raises(ValueError):
            store.append_batch(0, tool=0, submit=0.0, deadline=1.0)

    @pytest.mark.parametrize("tool", [-1, MAX_TOOLS, 2**40])
    def test_out_of_range_tool_rejected(self, tool):
        """Nothing but ``append_batch`` bounds a tool index: a bad one
        must not wrap into the batch table or leave half an entry."""
        store = JobStore()
        store.append_batch(2, tool=MAX_TOOLS - 1, submit=0.0, deadline=1.0)
        before = store.digest()
        with pytest.raises(ValueError, match="tool index"):
            store.append_batch(1, tool=tool, submit=0.0, deadline=1.0)
        assert len(store) == 2 and store.digest() == before
        assert store.append_batch(1, tool=0, submit=2.0, deadline=3.0) == (2, 3)
        assert [row.tool for row in store.rows()] == [MAX_TOOLS - 1] * 2 + [0]


class TestArrivalAttributesLivePerBatch:
    def test_row_resolves_its_batch_at_every_edge(self):
        store = JobStore()
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
        store = JobStore()
        store.reserve(8)
        for index in (0, -1):
            with pytest.raises(IndexError):
                store.arrival(index)
        store.append_batch(2, tool=1, submit=0.0, deadline=1.0)
        for index in (2, -1):
            with pytest.raises(IndexError):
                store.arrival(index)

    def test_transitions_never_touch_arrival_attributes(self):
        store = _scripted(JobStore())
        arrived = [(6, 1, 0.0, 60.0), (4, 0, 5.0, 65.0), (2, 2, 9.0, 69.0)]
        rows = iter(store.rows())
        for count, tool, submit, deadline in arrived:
            for _ in range(count):
                row = next(rows)
                assert (row.tool, row.submit, row.deadline) == \
                    (tool, submit, deadline)


class TestTransitions:
    def test_gpu_lifecycle(self):
        store = JobStore()
        store.append_batch(4, tool=0, submit=0.0, deadline=60.0)
        store.start_range(0, 4, node=7, now=1.0, gpu=True)
        assert store.row(2).state is FleetJobState.RUNNING
        assert store.row(2).destination == 7
        assert store.row(2).gpu is True
        store.complete_range(0, 4, now=11.0)
        assert store.row(0).state is FleetJobState.COMPLETED
        assert store.row(0).finish == 11.0

    def test_queue_then_partial_start(self):
        store = JobStore()
        store.append_batch(6, tool=1, submit=0.0, deadline=60.0)
        store.queue_range(0, 6, node=3)
        assert all(r.state is FleetJobState.QUEUED for r in store.rows())
        store.start_range(0, 2, node=3, now=5.0, gpu=True)
        assert store.row(1).state is FleetJobState.RUNNING
        assert store.row(2).state is FleetJobState.QUEUED

    def test_shed_records_reason(self):
        store = JobStore()
        store.append_batch(3, tool=0, submit=0.0, deadline=60.0)
        store.shed_range(0, 3, ShedReason.QUEUE_FULL, now=2.0)
        row = store.row(1)
        assert row.state is FleetJobState.SHED
        assert row.shed is ShedReason.QUEUE_FULL
        assert row.finish == 2.0

    def test_resubmit_increments_hops_and_resets_placement(self):
        store = JobStore()
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
        store = JobStore()
        store.append_batch(1, tool=0, submit=0.0, deadline=60.0)
        store.fail_range(0, 1, now=9.0)
        assert store.row(0).state is FleetJobState.FAILED
        assert store.row(0).finish == 9.0


class TestDigestAndCounts:
    def test_count_by_state_only_reports_nonzero(self):
        store = JobStore()
        store.append_batch(3, tool=0, submit=0.0, deadline=60.0)
        store.start_range(0, 1, node=0, now=0.0, gpu=True)
        assert store.count_by_state() == {"PENDING": 2, "RUNNING": 1}

    def test_digest_is_bitwise(self):
        a, b = JobStore(), JobStore()
        for store in (a, b):
            store.append_batch(4, tool=1, submit=0.0, deadline=60.0)
            store.start_range(0, 4, node=2, now=1.0, gpu=True)
        assert a.digest() == b.digest()
        b.complete_range(3, 4, now=5.0)
        assert a.digest() != b.digest()

    def test_range_ops_equal_per_row_ops(self):
        """The columnar-vs-reference contract in miniature: one bulk
        range op and N single-row ops must produce identical bytes."""
        bulk, perjob = JobStore(), JobStore()
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
        assert len(SHED_REASON_CODE) == len(ShedReason)


def _scripted(store: JobStore) -> JobStore:
    """Drive ``store`` through every transition kind over three batches."""
    store.append_batch(6, tool=1, submit=0.0, deadline=60.0)
    store.append_batch(4, tool=0, submit=5.0, deadline=65.0)
    store.start_span(0, 1.0, [(3, 2, 0, 1), (5, 7, 1, 4)])
    store.queue_range(5, 6, node=7, pool=1)
    store.start_range(6, 8, NO_NODE, 5.0, gpu=False)
    store.complete_range(0, 3, now=11.0)
    store.resubmit_range(3, 5)
    store.shed_range(8, 9, ShedReason.QUEUE_FULL, now=5.0)
    store.fail_range(9, 10, now=6.0)
    store.append_batch(2, tool=2, submit=9.0, deadline=69.0)
    return store


class TestCapacityIsNotLength:
    """Reserved capacity is an allocation detail no reader can observe."""

    def test_reserved_store_equals_grown_store(self):
        grown = _scripted(JobStore())
        reserved = JobStore()
        reserved.reserve(1000)
        _scripted(reserved)
        assert len(reserved.state) == 1000  # the capacity is really there
        assert len(reserved) == len(grown) == 12
        assert reserved.digest() == grown.digest()
        assert reserved.count_by_state() == grown.count_by_state()
        assert list(reserved.rows()) == list(grown.rows())

    def test_reserved_tail_is_invisible(self):
        store = JobStore()
        store.reserve(64)
        assert len(store) == 0
        assert list(store.rows()) == []
        assert store.count_by_state() == {}
        assert store.digest() == JobStore().digest()
        assert gpu_wait_percentile(store, 0.95) == 0.0
        store.append_batch(2, tool=0, submit=0.0, deadline=60.0)
        assert store.count_by_state() == {"PENDING": 2}
        with pytest.raises(IndexError):
            store.row(2)  # allocated, but not a job
        with pytest.raises(IndexError):
            store.row(-1)

    def test_reserve_never_shrinks_and_keeps_rows(self):
        store = _scripted(JobStore())
        before = store.digest()
        store.reserve(4)
        assert len(store.state) >= 12
        store.reserve(500)
        assert len(store) == 12 and store.digest() == before
        lo, hi = store.append_batch(3, tool=0, submit=20.0, deadline=80.0)
        assert (lo, hi) == (12, 15)
        assert store.row(14).state is FleetJobState.PENDING
        assert store.row(14).destination == NO_NODE

    def test_unsized_store_grows_geometrically(self):
        store = JobStore()
        capacities = set()
        for _ in range(200):
            store.append_batch(1, tool=0, submit=0.0, deadline=1.0)
            capacities.add(len(store.state))
        assert len(store) == 200
        assert len(capacities) <= 9  # doublings, not one growth per append


def canonical_digest(store: JobStore) -> str:
    """SHA-256 over int64/float64 columns rebuilt from ``rows()`` alone."""
    rows = list(store.rows())
    columns = [
        array("q", [int(row.state) for row in rows]),
        array("q", [row.tool for row in rows]),
        array("d", [row.submit for row in rows]),
        array("d", [row.deadline for row in rows]),
        array("q", [row.destination for row in rows]),
        array("q", [row.hops for row in rows]),
        array("q", [NO_REASON if row.shed is None
                    else SHED_REASON_CODE[row.shed] for row in rows]),
        array("d", [row.start for row in rows]),
        array("d", [row.finish for row in rows]),
        array("q", [int(row.gpu) for row in rows]),
        array("q", [row.pool for row in rows]),
        array("q", [row.epoch for row in rows]),
    ]
    hasher = hashlib.sha256()
    for column in columns:
        hasher.update(column.tobytes())
    return hasher.hexdigest()


class TestCanonicalDigest:
    """Columns are stored narrow; the digest is of their 64-bit view, so
    no recorded digest depends on a storage width."""

    def test_a_row_is_30_bytes(self):
        store = JobStore()
        store.reserve(100)
        assert sum(getattr(store, name).itemsize
                   for name in JobStore.COLUMNS) == 30
        assert all(getattr(store, name).itemsize == 8
                   for name in ("start", "finish"))
        # Arrival attributes have no per-row storage at all, and an
        # append writes one batch entry however many rows it adds.
        assert set(JobStore.DIGEST_ORDER) - set(JobStore.COLUMNS) == \
            {"tool", "submit", "deadline"}
        assert not any(hasattr(store, name)
                       for name in ("tool", "submit", "deadline"))
        store.append_batch(90, tool=1, submit=0.0, deadline=1.0)
        assert len(store._batch_lo) == len(store._batch_submit) == 1

    @pytest.mark.parametrize("reserved", [0, 1000])
    def test_digest_is_sha256_of_the_64_bit_columns(self, reserved):
        store = JobStore()
        store.reserve(reserved)
        _scripted(store)
        assert {row.state for row in store.rows()} == set(FleetJobState)
        assert store.digest() == canonical_digest(store)

    @pytest.mark.parametrize("length", [0, 1, 3, 4, 5, 8, 9])
    def test_chunked_widening_has_no_seams(self, monkeypatch, length):
        monkeypatch.setattr(jobstore, "_DIGEST_CHUNK", 4)
        store = JobStore()
        for i in range(length):  # every row differs in a narrow column
            store.append_batch(1, tool=i, submit=float(i), deadline=i + 60.0)
            store.start_range(i, i + 1, node=100 + i, now=float(i), gpu=True,
                              pool=i % 2, epoch=i + 1)
        assert store.digest() == canonical_digest(store)

    def test_the_real_chunk_seam_is_hashed(self):
        """Batch attributes are expanded chunk by chunk: the seam may cut
        a batch, sit on a batch edge, or trail one by a row."""
        chunk = jobstore._DIGEST_CHUNK
        layouts = {
            "seam mid-batch": (chunk - 9, 20, 5),
            "seam one row past a batch edge": (chunk - 9, 8, 5),
            "seam on a batch edge": (chunk - 9, 9, 5),
            "seam one row before a batch edge": (chunk - 9, 10, 5),
            "one-row batches around the seam": (chunk - 1, 1, 1),
        }
        for label, counts in layouts.items():
            store = JobStore()
            store.reserve(sum(counts))
            digests = set()
            for number, count in enumerate(counts):
                lo, hi = store.append_batch(
                    count, tool=3 + number, submit=1.0 + number,
                    deadline=2.5 * (number + 1),
                )
                store.queue_range(hi - 1, hi, node=hi, pool=1)
                digests.add(store.digest())
            assert len(store) > chunk and len(digests) == 3, label
            # The per-row canonical expansion, from what the test
            # appended and not from the store's own batch table.
            per_row = {
                "tool": array("q"), "submit": array("d"),
                "deadline": array("d"),
            }
            for number, count in enumerate(counts):
                per_row["tool"] += array("q", [3 + number]) * count
                per_row["submit"] += array("d", [1.0 + number]) * count
                per_row["deadline"] += array("d", [2.5 * (number + 1)]) * count
            whole = hashlib.sha256()
            for name in JobStore.DIGEST_ORDER:
                if name in per_row:
                    whole.update(per_row[name].tobytes())
                    continue
                column = getattr(store, name)
                code = "d" if column.typecode == "d" else "q"
                whole.update(array(code, column).tobytes())
            assert store.digest() == whole.hexdigest(), label


class TestStartSpan:
    def test_span_equals_one_start_range_per_piece(self):
        span, ranges = JobStore(), JobStore()
        for store in (span, ranges):
            store.append_batch(10, tool=3, submit=2.0, deadline=62.0)
        pieces = [(4, 0, 0, 1), (6, 9, 1, 3), (9, 1, 0, 2), (10, 2, 0, 1)]
        span.start_span(0, 2.0, pieces)
        lo = 0
        for hi, node, pool, epoch in pieces:
            ranges.start_range(lo, hi, node, 2.0, gpu=True,
                               pool=pool, epoch=epoch)
            lo = hi
        assert span.digest() == ranges.digest()
        rows = list(span.rows())
        assert [row.destination for row in rows] == [0] * 4 + [9] * 2 + [1] * 3 + [2]
        assert all(row.gpu and row.start == 2.0 for row in rows)
        # The odd pieces kept their own pool/epoch, not the span's.
        assert (span.row(5).pool, span.row(5).epoch) == (1, 3)
        assert (span.row(8).pool, span.row(8).epoch) == (0, 2)
        assert (span.row(9).pool, span.row(9).epoch) == (0, 1)

    def test_span_leaves_rows_outside_alone(self):
        store = JobStore()
        store.append_batch(6, tool=0, submit=0.0, deadline=60.0)
        store.start_span(2, 1.0, [(4, 5, 0, 1)])
        states = [row.state for row in store.rows()]
        assert states == [FleetJobState.PENDING] * 2 + \
            [FleetJobState.RUNNING] * 2 + [FleetJobState.PENDING] * 2


def naive_gpu_wait_percentile(store, quantile, window_lo=0.0,
                              window_hi=float("inf")):
    """The pre-vectorisation implementation, kept as the reference."""
    completed = int(FleetJobState.COMPLETED)
    submit = [store.row(i).submit for i in range(len(store))]
    waits = sorted(
        store.start[i] - submit[i]
        for i in range(len(store))
        if store.gpu[i]
        and store.state[i] == completed
        and window_lo <= submit[i] < window_hi
    )
    if not waits:
        return 0.0
    rank = max(0, min(len(waits) - 1, int(math.ceil(quantile * len(waits))) - 1))
    return waits[rank]


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

    @pytest.mark.parametrize("quantile", [0.01, 0.5, 0.95, 0.999, 1.0])
    @pytest.mark.parametrize("window", [
        (0.0, float("inf")),
        (AB_STORM_START, AB_STORM_START + AB_STORM_DURATION),
        (AB_STORM_START + 600.0, AB_STORM_START + 660.0),
    ])
    def test_bit_equal_to_naive_reference(self, storm_store, quantile, window):
        ours = gpu_wait_percentile(storm_store, quantile, *window)
        theirs = naive_gpu_wait_percentile(storm_store, quantile, *window)
        assert type(ours) is float
        assert ours == theirs

    def test_count_by_state_equals_a_per_row_count(self, storm_store):
        counted = Counter(
            FleetJobState(state).name
            for state in storm_store.state[:len(storm_store)]
        )
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
        for chunk in (1, 7, 257, len(storm_store) - 1):
            monkeypatch.setattr(jobstore, "_DIGEST_CHUNK", chunk)
            assert results() == whole, chunk

    def test_storm_fixture_has_real_waits(self, storm_store):
        lo, hi = AB_STORM_START, AB_STORM_START + AB_STORM_DURATION
        assert naive_gpu_wait_percentile(storm_store, 0.95, lo, hi) > 0.0

    def test_empty_window_is_zero(self, storm_store):
        assert gpu_wait_percentile(storm_store, 0.95, 1e9, 2e9) == 0.0
        assert gpu_wait_percentile(storm_store, 0.95, 500.0, 500.0) == 0.0
        assert gpu_wait_percentile(JobStore(), 0.5) == 0.0

    def test_quantile_validated(self, storm_store):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                gpu_wait_percentile(storm_store, bad)


@pytest.mark.perf_guard
def test_result_time_readers_allocate_no_whole_column():
    """Memory guard: on a 1 M-row store the three result-time readers
    work a chunk at a time.  Their temporaries peak well under 4 MiB;
    any per-row temporary over the whole store (the int64 copy
    ``np.bincount`` used to make of ``state`` was 8 MiB) trips it."""
    rows, per_batch = 1_000_000, 125
    store = JobStore()
    store.reserve(rows)
    for number in range(rows // per_batch):
        now = float(number)
        lo, hi = store.append_batch(per_batch, number % 5, now, now + 3600.0)
        store.start_span(lo, now + number % 3, [(hi, number % 1000, 0, 1)])
        store.complete_range(lo, hi, now + 60.0)
    window = (4000.0, 4400.0)  # 50 000 of the jobs, like a storm hour
    tracemalloc.start()
    try:
        counts = store.count_by_state()
        digest = store.digest()
        p95 = gpu_wait_percentile(store, 0.95, *window)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counts == {"COMPLETED": rows}
    assert len(digest) == 64 and p95 == 2.0
    assert peak < 4 * 2**20, f"readers peaked at {peak / 2**20:.1f} MiB"
