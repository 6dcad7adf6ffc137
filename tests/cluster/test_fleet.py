"""Fleet simulator: columnar-vs-reference parity, determinism, semantics."""

import math
from bisect import bisect_left
from dataclasses import replace

import pytest

from repro.cluster.fleet import (
    FleetConfig,
    FleetSimulator,
    NodeFailure,
    run_fleet,
)
from repro.cluster.autoscale import PLACEMENT_POLICIES, AutoscalerConfig
from repro.cluster.fleet_reference import ObjectFleetReference
from repro.cluster.jobstore import (
    MAX_HOPS,
    MAX_NODES,
    MAX_TOOLS,
    FleetJobState,
    JobStore,
)
from repro.workloads.diurnal import (
    ArrivalBatch,
    BurstStorm,
    DiurnalProfile,
    FleetToolClass,
    diurnal_batches,
)

#: A little fleet whose nodes die; under :func:`surge_profile` its queues
#: also fill and deadlines expire.
STRESS_CONFIG = FleetConfig(
    nodes=6,
    gpus_per_node=2,
    queue_limit=4,
    deadline_seconds=900.0,
    max_hops=2,
    failures=(
        NodeFailure(time=3600.0, node=0, recovery_seconds=1800.0),
        NodeFailure(time=7200.0, node=3, recovery_seconds=600.0),
        NodeFailure(time=7300.0, node=1, recovery_seconds=120.0),
    ),
)


def stress_profile(seed: int) -> DiurnalProfile:
    return DiurnalProfile(
        users=400,
        jobs_per_user_day=5.0,
        days=0.5,
        tick_seconds=120.0,
        seed=seed,
        storms=(BurstStorm(start=3000.0, duration=1200.0, multiplier=6.0),),
    )


def surge_profile(seed: int) -> DiurnalProfile:
    """:func:`stress_profile` with 3.75x the users and a 6x storm from
    3 000 s to 7 800 s: under STRESS_CONFIG every seed and policy queues,
    degrades, resubmits and sheds expired jobs (:func:`stress_profile`
    alone queues at most two jobs)."""
    storm = BurstStorm(start=3000.0, duration=4800.0, multiplier=6.0)
    return replace(stress_profile(seed), users=1500, storms=(storm,))


def run_both(config, profile):
    batches = diurnal_batches(profile)
    result = FleetSimulator(config, profile.tools).run(batches)
    reference = ObjectFleetReference(config, profile.tools)
    store = reference.run(batches)
    return result, reference, store


class TestColumnarReferenceParity:
    """The tentpole property: bulk range transitions are bit-identical
    to the naive per-job-object model under seeded workloads."""

    @pytest.mark.parametrize("seed", range(5))
    def test_store_digests_match_under_failures(self, seed):
        self.check_surge(STRESS_CONFIG, seed)

    @pytest.mark.parametrize(
        "policy", [p for p in PLACEMENT_POLICIES if p != STRESS_CONFIG.placement]
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_store_digests_match_under_every_policy(self, seed, policy):
        self.check_surge(replace(STRESS_CONFIG, placement=policy), seed)

    @staticmethod
    def check_surge(config, seed):
        result, reference, store = run_both(config, surge_profile(seed))
        # The surge drains queues, degrades, sheds and resubmits.
        assert result.queued > 0 and result.degraded > 0
        assert sum(result.shed.values()) > 0 and result.resubmitted > 0
        assert result.store_digest == store.digest()
        assert result.jobs_submitted == reference.counts["submitted"]
        assert result.completed == reference.counts["completed"]
        assert result.mapped_gpu == reference.counts["mapped_gpu"]
        assert result.mapped_cpu == reference.counts["mapped_cpu"]
        assert result.queued == reference.counts["queued"]
        assert result.resubmitted == reference.counts["resubmitted"]
        assert result.failed == reference.counts["failed"]
        assert result.degraded == reference.counts["degraded"]
        assert result.shed == reference.shed

    def test_parity_with_queue_full_shedding(self):
        """degrade_to_cpu off: overflow becomes QUEUE_FULL sheds."""
        config = FleetConfig(
            nodes=2, gpus_per_node=1, queue_limit=2,
            deadline_seconds=600.0, max_hops=1, degrade_to_cpu=False,
        )
        profile = DiurnalProfile(
            users=800, jobs_per_user_day=4.0, days=0.25,
            tick_seconds=60.0, seed=11,
        )
        result, reference, store = run_both(config, profile)
        assert result.store_digest == store.digest()
        assert result.shed == reference.shed
        assert result.shed.get("queue_full", 0) > 0

    def test_parity_with_hop_exhaustion(self):
        """Back-to-back failures push resubmit chains past max_hops."""
        config = FleetConfig(
            nodes=2, gpus_per_node=2, queue_limit=2,
            deadline_seconds=7200.0, max_hops=1,
            failures=tuple(
                NodeFailure(time=1800.0 + 400.0 * i, node=i % 2,
                            recovery_seconds=350.0)
                for i in range(8)
            ),
        )
        # GPU-only long jobs so running work is always interrupted.
        tools = (
            FleetToolClass("long_gpu", True, 3600.0, 7200.0, 1.0),
        )
        profile = DiurnalProfile(
            users=120, jobs_per_user_day=4.0, days=0.25,
            tick_seconds=300.0, seed=5, tools=tools,
        )
        result, reference, store = run_both(config, profile)
        assert result.store_digest == store.digest()
        assert result.failed == reference.counts["failed"]
        assert result.failed > 0  # hop budget actually exhausted
        assert result.resubmitted > 0


class TestLatencyHistogram:
    """Each completion observes ``now - submit`` with the arrival instant
    its event or queue entry carries; the reference model does not
    model the histogram, so it is checked against the store's rows."""

    @pytest.mark.parametrize("policy", PLACEMENT_POLICIES)
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("surge", [False, True], ids=["stress", "surge"])
    def test_latency_equals_finish_minus_submit_of_completed_rows(
        self, surge, seed, policy
    ):
        config = replace(STRESS_CONFIG, placement=policy)
        profile = surge_profile(seed) if surge else stress_profile(seed)
        simulator = FleetSimulator(config, profile.tools)
        result = simulator.run(profile.batches)
        assert result.resubmitted
        if surge:  # drained, degraded and expired groups too
            assert result.queued and result.degraded
            assert result.shed["deadline_expired"]
        latencies = [
            row.finish - row.submit
            for row in simulator.store.rows()
            if row.state is FleetJobState.COMPLETED
        ]
        histogram = simulator._latency
        buckets = [0] * len(histogram.buckets)
        for value in latencies:
            buckets[bisect_left(histogram.buckets, value)] += 1
        assert histogram.count == len(latencies) == result.completed
        assert histogram.counts == buckets
        assert histogram.total == pytest.approx(
            math.fsum(latencies), rel=1e-9
        )


class TestOneDayPerProfile:
    """``DiurnalProfile.batches`` generates a profile's day once; only
    runs over the one profile object share it."""

    def test_batches_is_the_generated_day_kept(self, generated_days):
        profile = stress_profile(seed=2)
        assert profile.batches is profile.batches
        assert len(generated_days) == 1
        assert profile.batches == tuple(diurnal_batches(profile))

    def test_three_policies_over_one_profile_generate_once(
        self, generated_days
    ):
        profile = stress_profile(seed=1)
        for policy in PLACEMENT_POLICIES:
            run_fleet(replace(STRESS_CONFIG, placement=policy), profile)
        assert len(generated_days) == 1

    def test_equal_profiles_built_apart_each_generate(self, generated_days):
        first, second = stress_profile(seed=1), stress_profile(seed=1)
        assert first == second
        assert run_fleet(STRESS_CONFIG, first).to_json() == \
            run_fleet(STRESS_CONFIG, second).to_json()
        assert len(generated_days) == 2
        assert first.batches is not second.batches
        assert first.batches == second.batches


class TestDeterminism:
    def test_two_runs_byte_match(self):
        """The CI double-run contract: identical config + profile gives
        byte-identical deterministic JSON (digest included)."""
        first = run_fleet(STRESS_CONFIG, stress_profile(seed=3))
        # built apart, so the second run generates its own day too
        second = run_fleet(STRESS_CONFIG, stress_profile(seed=3))
        assert first.to_json() == second.to_json()
        assert first.store_digest == second.store_digest

    def test_different_seeds_differ(self):
        first = run_fleet(STRESS_CONFIG, stress_profile(seed=0))
        second = run_fleet(STRESS_CONFIG, stress_profile(seed=1))
        assert first.store_digest != second.store_digest


class TestFleetSemantics:
    def test_ledger_balances(self):
        result = run_fleet(STRESS_CONFIG, stress_profile(seed=2))
        shed_total = sum(result.shed.values())
        assert result.jobs_submitted == (
            result.completed + shed_total + result.failed
        )
        states = result.states
        live = set(states) - {"COMPLETED", "SHED", "FAILED"}
        assert not live  # every job reached a terminal state

    def test_quarantine_and_recovery(self):
        result = run_fleet(STRESS_CONFIG, stress_profile(seed=0))
        assert result.quarantines == len(STRESS_CONFIG.failures)
        assert result.resubmitted > 0

    @pytest.mark.parametrize("outages, latest_end", [
        ((NodeFailure(100, 0, 50), NodeFailure(120, 0, 500)), 620.0),
        ((NodeFailure(100, 0, 500), NodeFailure(120, 0, 50)), 600.0),
    ])
    def test_overlapping_outages_end_at_the_latest_recovery(
        self, outages, latest_end
    ):
        """Both models used to re-admit the node at the FIRST recovery,
        so parity was blind to it.  During the overlap the one-node
        fleet has nowhere to run or queue a GPU job — racon degrades to
        the CPU arm; it starts on node 0 again exactly at the latest end."""
        config = FleetConfig(nodes=1, gpus_per_node=1, failures=outages)
        tools = (FleetToolClass("racon_gpu", True, 240.0, 2400.0, 1.0,
                                degradable=True),)
        batches = [ArrivalBatch(200.0, 0, 1), ArrivalBatch(latest_end, 0, 1)]
        simulator = FleetSimulator(config, tools)
        result = simulator.run(batches)
        rows = [(row.destination, row.gpu, row.start, row.finish)
                for row in simulator.store.rows()]
        assert rows == [
            (-1, False, 200.0, 2600.0),
            (0, True, latest_end, latest_end + 240.0),
        ]
        assert (result.quarantines, result.degraded) == (2, 1)
        store = ObjectFleetReference(config, tools).run(batches)
        assert list(store.rows()) == list(simulator.store.rows())

    def test_degradable_class_degrades_before_shedding(self):
        """racon-style degradable jobs overflow to the CPU arm."""
        config = FleetConfig(
            nodes=1, gpus_per_node=1, queue_limit=1,
            deadline_seconds=600.0,
        )
        tools = (
            FleetToolClass("racon_like", True, 600.0, 1200.0, 1.0,
                           degradable=True),
        )
        profile = DiurnalProfile(
            users=600, jobs_per_user_day=4.0, days=0.25,
            tick_seconds=60.0, seed=1, tools=tools,
        )
        result, reference, store = run_both(config, profile)
        assert result.store_digest == store.digest()
        assert result.degraded > 0
        assert result.shed.get("queue_full", 0) == 0

    def test_cpu_only_tools_never_touch_nodes(self):
        config = FleetConfig(nodes=2, gpus_per_node=1)
        tools = (FleetToolClass("cpu_tool", False, 0.0, 300.0, 1.0),)
        profile = DiurnalProfile(
            users=100, jobs_per_user_day=2.0, days=0.1,
            tick_seconds=60.0, seed=0, tools=tools,
        )
        simulator = FleetSimulator(config, tools)
        result = simulator.run(diurnal_batches(profile))
        assert result.mapped_gpu == 0
        assert result.mapped_cpu == result.jobs_submitted
        assert all(
            row.destination == -1 for row in simulator.store.rows()
        )

    def test_config_validation(self):
        FleetConfig(nodes=2, benefit_threshold=float("inf"))  # "nobody is"
        with pytest.raises(ValueError):
            FleetConfig(nodes=0)
        with pytest.raises(ValueError):
            FleetConfig(nodes=2, gpus_per_node=0)
        with pytest.raises(ValueError):
            FleetConfig(
                nodes=2,
                failures=(NodeFailure(time=0.0, node=5,
                                      recovery_seconds=1.0),),
            )

    @pytest.mark.parametrize("outage", [
        {"time": float("nan")},
        {"time": float("inf")},
        {"time": float("-inf")},
        {"recovery_seconds": float("nan")},
        {"recovery_seconds": float("inf")},
        {"recovery_seconds": -1.0},
    ])
    def test_non_finite_outage_rejected(self, outage):
        """An outage's instants go on the event heap: NaN there is never
        drained and the day ends with an unbalanced ledger."""
        fields = {"time": 10.0, "node": 0, "recovery_seconds": 5.0, **outage}
        with pytest.raises(ValueError, match=next(iter(outage))):
            NodeFailure(**fields)
        NodeFailure(time=-1.0, node=0, recovery_seconds=0.0)  # both defined

    @pytest.mark.parametrize("knobs", [
        {"queue_limit": -1},
        {"max_hops": -1},
        {"deadline_seconds": 0.0},
        {"deadline_seconds": -5.0},
        {"deadline_seconds": float("inf")},
        {"deadline_seconds": float("nan")},
        # A product of two negatives is a positive slot count.
        {"gpus_per_node": -8, "slots_per_gpu": -1},
        {"slots_per_gpu": 0},
        # NaN fails every comparison: it used to pass `<= 0` and turn
        # benefit-aware into spread.
        {"benefit_threshold": float("nan")},
        {"benefit_threshold": 0.0},
    ])
    def test_degenerate_knobs_rejected(self, knobs):
        with pytest.raises(ValueError):
            FleetConfig(nodes=2, **knobs)

    @pytest.mark.parametrize("model", [FleetSimulator, ObjectFleetReference])
    @pytest.mark.parametrize("batches, kept, match", [
        # Rows of the second batch used to start at t=50 and finish at
        # 150, after the first batch's t=500 arrival.
        ([ArrivalBatch(500.0, 0, 2), ArrivalBatch(50.0, 0, 2)], 2, "time"),
        # NaN: an unbalanced ledger (simulator), never-finishing rows
        # (oracle).
        ([ArrivalBatch(float("nan"), 0, 2)], 0, "time"),
        ([ArrivalBatch(float("inf"), 0, 2)], 0, "time"),
        ([ArrivalBatch(float("-inf"), 0, 2)], 0, "time"),
        ([ArrivalBatch(0.0, 0, 2), ArrivalBatch(1.0, 1, 2)], 2, "tool"),
        ([ArrivalBatch(0.0, -1, 2)], 0, "tool"),
    ])
    def test_unplaceable_batch_refused(self, model, batches, kept, match):
        """A batch out of time order, at a non-finite instant or naming
        an unknown tool is a ValueError before it reaches the store."""
        tool = FleetToolClass("gpu", True, 100.0, 1000.0, 1.0)
        simulator = model(FleetConfig(nodes=2, gpus_per_node=2), (tool,))
        with pytest.raises(ValueError, match=match):
            simulator.run(batches)
        assert len(simulator.store) == kept

    @pytest.mark.parametrize("field", ["gpu_seconds", "cpu_seconds", "weight"])
    @pytest.mark.parametrize("value", [-5.0, float("nan"), float("inf")])
    def test_degenerate_tool_class_rejected(self, field, value):
        """Service times become event instants: a negative one finished
        jobs before they started, a NaN one unbalanced the ledger."""
        fields = {"gpu_seconds": 1.0, "cpu_seconds": 2.0, "weight": 1.0}
        with pytest.raises(ValueError, match=field):
            FleetToolClass("t", True, **{**fields, field: value})
        FleetToolClass("t", True, **{**fields, field: 0.0})  # zero is legal

    def test_zero_queue_and_zero_hops_are_defined(self):
        config = FleetConfig(nodes=2, queue_limit=0, max_hops=0)
        result = run_fleet(config, DiurnalProfile(seed=1).scaled_to(200))
        assert result.queued == 0 and result.resubmitted == 0

    def test_column_widths_bound_the_shape(self):
        """A shape that constructs can never overflow a narrow column."""
        FleetConfig(nodes=2, max_hops=MAX_HOPS)
        with pytest.raises(ValueError, match="max_hops"):
            FleetConfig(nodes=2, max_hops=MAX_HOPS + 1)
        FleetConfig(nodes=MAX_NODES)
        with pytest.raises(ValueError, match="nodes"):
            FleetConfig(nodes=MAX_NODES + 1)
        tool = FleetToolClass("t", True, 1.0, 2.0, 1.0)
        FleetSimulator(FleetConfig(nodes=1), (tool,) * MAX_TOOLS)
        with pytest.raises(ValueError, match="tool table"):
            FleetSimulator(FleetConfig(nodes=1), (tool,) * (MAX_TOOLS + 1))
        # The bounds are the largest values the columns really hold.
        store = JobStore(MAX_NODES)
        store.append_batch(1, tool=MAX_TOOLS - 1, submit=0.0, deadline=1.0)
        store.start_range(0, 1, MAX_NODES - 1, 0.0, gpu=True, epoch=MAX_NODES)
        for _ in range(MAX_HOPS):
            store.resubmit_range(0, 1)
        assert store.row(0).hops == MAX_HOPS

    def test_aggregate_metrics_not_per_job(self):
        """Observability at fleet scale is aggregate: counter families
        stay fixed no matter how many jobs run."""
        profile = DiurnalProfile(
            users=2000, jobs_per_user_day=2.0, days=0.1,
            tick_seconds=60.0, seed=0,
        )
        simulator = FleetSimulator(FleetConfig(nodes=4, gpus_per_node=2),
                                   profile.tools)
        result = simulator.run(diurnal_batches(profile))
        assert result.jobs_submitted > 100
        families = list(simulator.metrics.snapshot())
        assert len(families) < 15
        snapshot = simulator.metrics.snapshot()
        latency = snapshot["gyan_fleet_job_latency_seconds"]["series"]
        assert latency["gyan_fleet_job_latency_seconds"]["count"] == (
            result.completed
        )

    def test_completed_jobs_have_monotone_instants(self):
        profile = stress_profile(seed=4)
        simulator = FleetSimulator(STRESS_CONFIG, profile.tools)
        simulator.run(diurnal_batches(profile))
        for row in simulator.store.rows():
            if row.state is FleetJobState.COMPLETED:
                assert row.submit <= row.start <= row.finish


class TestStoreSizing:
    """Nothing in the store is sized per job, so `run` never counts the
    day ahead: a list and a generator are the same input."""

    def test_generator_input_equals_list_input(self):
        profile = stress_profile(seed=1)
        batches = diurnal_batches(profile)
        from_list = FleetSimulator(STRESS_CONFIG, profile.tools)
        listed = from_list.run(batches)
        from_gen = FleetSimulator(STRESS_CONFIG, profile.tools)
        streamed = from_gen.run(batch for batch in batches)
        assert streamed.to_json() == listed.to_json()
        assert list(from_gen.store.rows()) == list(from_list.store.rows())
        assert from_gen.store.nbytes == from_list.store.nbytes

    def test_empty_and_nonpositive_batches_reserve_nothing(self):
        from repro.workloads.diurnal import ArrivalBatch

        tools = stress_profile(0).tools
        simulator = FleetSimulator(FleetConfig(nodes=2, gpus_per_node=1), tools)
        result = simulator.run([ArrivalBatch(0.0, 0, 0), ArrivalBatch(1.0, 0, -3)])
        assert result.jobs_submitted == 0
        assert len(simulator.store) == simulator.store.nbytes == 0


class TestMappedSeriesBindLazily:
    """Binding the arm counters' children must not invent series."""

    def test_arm_that_never_fires_emits_no_series(self):
        tools = (FleetToolClass("cpu_tool", False, 0.0, 300.0, 1.0),)
        profile = DiurnalProfile(
            users=100, jobs_per_user_day=2.0, days=0.1,
            tick_seconds=60.0, seed=0, tools=tools,
        )
        simulator = FleetSimulator(FleetConfig(nodes=2, gpus_per_node=1), tools)
        simulator.run(diurnal_batches(profile))
        series = simulator.metrics.snapshot()[
            "gyan_fleet_mapping_decisions_total"]["series"]
        assert list(series) == ["gyan_fleet_mapping_decisions_total{arm=cpu}"]
        text = simulator.metrics.render_prometheus()
        assert 'arm="gpu"' not in text
        assert "gyan_fleet_jobs_shed_total{" not in text  # nothing shed

    def test_no_series_before_the_first_batch(self):
        simulator = FleetSimulator(
            FleetConfig(nodes=2, gpus_per_node=1), stress_profile(0).tools
        )
        snapshot = simulator.metrics.snapshot()
        assert snapshot["gyan_fleet_mapping_decisions_total"]["series"] == {}
        assert snapshot["gyan_fleet_jobs_shed_total"]["series"] == {}

    def test_counts_match_the_store(self):
        profile = stress_profile(seed=3)
        simulator = FleetSimulator(STRESS_CONFIG, profile.tools)
        result = simulator.run(diurnal_batches(profile))
        value = simulator.metrics.value
        assert result.mapped_gpu == value(
            "gyan_fleet_mapping_decisions_total", arm="gpu")
        assert result.mapped_cpu == value(
            "gyan_fleet_mapping_decisions_total", arm="cpu")
        assert result.mapped_gpu > 0 and result.mapped_cpu > 0


class CountingStore(JobStore):
    """A :class:`JobStore` that logs every ``complete_range`` call."""

    def __init__(self, base_nodes):
        super().__init__(base_nodes)
        self.completes = []

    def complete_range(self, lo, hi, now):
        self.completes.append((lo, hi, now))
        super().complete_range(lo, hi, now)


def run_counted(config, tools, batches):
    """Run both models; assert digest + full ledger parity; return the
    columnar simulator, its result and its (finish, lo, hi) span events
    — one per ``_on_span_done`` heap entry, since every entry is popped."""
    simulator = FleetSimulator(config, tools)
    simulator.store = CountingStore(simulator._base)
    spans = []
    handler = simulator._on_span_done

    def counted(now, seq, tool_index, submit, nodes, counts, stops):
        spans.append((now, stops[0], stops[-1]))
        handler(now, seq, tool_index, submit, nodes, counts, stops)

    simulator._on_span_done = counted
    result = simulator.run(batches)
    reference = ObjectFleetReference(config, tools)
    store = reference.run(batches)
    assert result.store_digest == store.digest()
    assert list(simulator.store.rows()) == list(store.rows())
    ledger = {
        "submitted": result.jobs_submitted,
        "mapped_gpu": result.mapped_gpu,
        "mapped_cpu": result.mapped_cpu,
        "degraded": result.degraded,
        "queued": result.queued,
        "completed": result.completed,
        "resubmitted": result.resubmitted,
        "failed": result.failed,
        "quarantines": result.quarantines,
        "provisioned": result.provisioned_nodes,
        "decommissioned": result.decommissioned_nodes,
    }
    assert ledger == reference.counts
    assert result.shed == reference.shed
    assert result.node_seconds == reference.meter.total
    assert result.jobs_submitted == (
        result.completed + sum(result.shed.values()) + result.failed
    )
    return simulator, result, spans


def finishes(simulator):
    return [row.finish for row in simulator.store.rows()]


class TestSpanCompletion:
    """One heap entry per placed span, one ``complete_range`` per
    still-live run of its node pieces — counted, so a regression back
    to per-piece completion fails here."""

    GPU_100 = FleetToolClass("gpu_100", True, 100.0, 1000.0, 1.0)
    GPU_300 = FleetToolClass("gpu_300", True, 300.0, 3000.0, 1.0)

    def three_node_span(self, failure_time):
        config = FleetConfig(
            nodes=4, gpus_per_node=2,
            failures=(NodeFailure(failure_time, node=1,
                                  recovery_seconds=1000.0),),
        )
        return run_counted(config, (self.GPU_100,), [ArrivalBatch(0.0, 0, 6)])

    def test_middle_node_fails_mid_span(self):
        simulator, result, spans = self.three_node_span(failure_time=50.0)
        # The span over nodes 0-2 lost its middle piece: two live runs.
        # Rows 2-3 resubmitted onto node 3 as a span of their own.
        assert spans == [(100.0, 0, 6), (150.0, 2, 4)]
        assert simulator.store.completes == [
            (0, 2, 100.0), (4, 6, 100.0), (2, 4, 150.0),
        ]
        assert finishes(simulator) == [100.0] * 2 + [150.0] * 2 + [100.0] * 2
        rows = list(simulator.store.rows())
        assert all(row.state is FleetJobState.COMPLETED for row in rows)
        assert [row.hops for row in rows] == [0, 0, 1, 1, 0, 0]
        assert [row.destination for row in rows] == [0, 0, 3, 3, 2, 2]
        assert (result.resubmitted, result.completed) == (2, 6)

    def test_failure_at_the_finish_instant_wins(self):
        """The outage was scheduled first, so at t=100 it interrupts
        node 1's piece before the span's completion event fires."""
        simulator, result, spans = self.three_node_span(failure_time=100.0)
        assert spans == [(100.0, 0, 6), (200.0, 2, 4)]
        assert simulator.store.completes == [
            (0, 2, 100.0), (4, 6, 100.0), (2, 4, 200.0),
        ]
        assert [row.start for row in simulator.store.rows()] == (
            [0.0] * 2 + [100.0] * 2 + [0.0] * 2
        )
        assert result.resubmitted == 2

    def test_failure_cuts_two_spans_and_a_queue_drain_span(self):
        """Under pack, node 0 fails at t=90 holding one piece each of
        spans A (rows 3-5) and B (rows 9-12), both spread over nodes 0
        and 1, and row 8, which left node 0's queue at t=50 as a
        one-piece span.  One lookup cuts all three; A and B complete
        their node-1 runs only."""
        gpu_50 = FleetToolClass("gpu_50", True, 50.0, 500.0, 1.0)
        config = FleetConfig(
            nodes=2, gpus_per_node=4, queue_limit=4, placement="pack",
            failures=(NodeFailure(90.0, node=0, recovery_seconds=1000.0),),
        )
        simulator, result, spans = run_counted(
            config, (gpu_50, self.GPU_300), [
                ArrivalBatch(0.0, 0, 3),   # rows 0-2: node 0
                ArrivalBatch(0.0, 1, 3),   # A: node 0 x1, node 1 x2
                ArrivalBatch(0.0, 0, 3),   # node 1 x2; row 8 queues on 0
                ArrivalBatch(60.0, 1, 4),  # B: node 0 x2, node 1 x2
            ],
        )
        rows = list(simulator.store.rows())
        assert [row.hops for row in rows] == [0] * 3 + [1, 0, 0] + [0] * 2 + [
            1, 1, 1, 0, 0]
        assert [row.destination for row in rows] == [0] * 3 + [1] * 10
        assert spans == [
            (50.0, 0, 3), (50.0, 6, 8), (100.0, 8, 9), (300.0, 3, 6),
            (350.0, 8, 9), (360.0, 9, 13), (600.0, 3, 4), (650.0, 9, 10),
            (660.0, 10, 11),
        ]
        assert simulator.store.completes == [
            (0, 3, 50.0), (6, 8, 50.0), (4, 6, 300.0), (8, 9, 350.0),
            (11, 13, 360.0), (3, 4, 600.0), (9, 10, 650.0), (10, 11, 660.0),
        ]
        assert (result.resubmitted, result.completed) == (4, 13)

    def test_scale_in_drain_empties_nodes_mid_span(self):
        auto = AutoscalerConfig(
            min_nodes=1, max_nodes=5, initial_nodes=5, eval_interval_s=10.0,
            hysteresis_windows=1, cooldown_s=0.0,
            scale_down_utilization=0.9, scale_down_step=3,
        )
        config = FleetConfig(nodes=5, gpus_per_node=2, autoscale=auto)
        # Span A: nodes 0, 1, 2 full and one slot of node 3; span B
        # takes node 3's other slot; node 4 idles.  The t=10 evaluation
        # drains nodes 4 (idle: gone at once), 3 and 2.
        simulator, result, spans = run_counted(
            config, (self.GPU_100, self.GPU_300),
            [ArrivalBatch(0.0, 0, 7), ArrivalBatch(0.0, 1, 1)],
        )
        assert spans == [(100.0, 0, 7), (300.0, 7, 8)]
        assert simulator.store.completes == [(0, 7, 100.0), (7, 8, 300.0)]
        # Node 2 empties when span A finishes (t=100) and decommissions
        # there; the t=100 evaluation, ordered after it, drains the now
        # idle node 1; node 3 runs span B's piece until t=300.
        assert result.decommissioned_nodes == 4
        assert [
            (t, active) for t, active, _pending in result.pool_timeline
            if t in (10.0, 90.0, 100.0, 300.0)
        ] == [(10.0, 4), (90.0, 4), (100.0, 2), (300.0, 1)]
        assert result.end_time == 300.0
        assert result.node_seconds == 5 * 10.0 + 4 * 90.0 + 2 * 200.0

    def test_zero_second_gpu_tool(self):
        instant = FleetToolClass("instant", True, 0.0, 10.0, 1.0)
        config = FleetConfig(nodes=2, gpus_per_node=2, queue_limit=4)
        simulator, result, spans = run_counted(
            config, (instant,), [ArrivalBatch(5.0, 0, 5)]
        )
        # Four start at once; the fifth queues on node 0 and starts (and
        # finishes) at the same instant as a one-piece span.
        assert spans == [(5.0, 0, 4), (5.0, 4, 5)]
        assert simulator.store.completes == [(0, 4, 5.0), (4, 5, 5.0)]
        assert finishes(simulator) == [5.0] * 5
        assert (result.queued, result.end_time) == (1, 5.0)

    def test_queue_drain_spans_interleave_with_fresh_spans(self):
        config = FleetConfig(nodes=3, gpus_per_node=1, queue_limit=1)
        simulator, result, spans = run_counted(
            config, (self.GPU_100,),
            [ArrivalBatch(0.0, 0, 5), ArrivalBatch(100.0, 0, 2)],
        )
        # t=100: the first span frees nodes 0-2; rows 3 and 4 leave the
        # queues of nodes 0 and 1 as one-piece spans, then the fresh
        # batch puts row 5 on node 2 and queues row 6 on node 0.
        # t=200: all three finish, in start order; row 6 follows row 3.
        assert spans == [
            (100.0, 0, 3), (200.0, 3, 4), (200.0, 4, 5), (200.0, 5, 6),
            (300.0, 6, 7),
        ]
        assert simulator.store.completes == [
            (lo, hi, now) for now, lo, hi in spans
        ]
        assert finishes(simulator) == [100.0] * 3 + [200.0] * 3 + [300.0]
        assert [row.destination for row in simulator.store.rows()] == [
            0, 1, 2, 0, 1, 2, 0,
        ]
        assert result.queued == 3

    @pytest.mark.parametrize("seed", range(3))
    def test_stressed_day_completes_per_run_not_per_piece(self, seed):
        """Under queues, sheds and three node failures: at most one
        write per span plus one per piece a failure could have split
        off, and far fewer than one per node piece."""
        profile = stress_profile(seed)
        simulator, result, spans = run_counted(
            STRESS_CONFIG, profile.tools, diurnal_batches(profile)
        )
        cpu_groups = sum(
            1 for lo, _hi, _now in simulator.store.completes
            if not simulator.store.row(lo).gpu
        )
        gpu_writes = len(simulator.store.completes) - cpu_groups
        assert 0 < gpu_writes <= len(spans) + result.resubmitted
