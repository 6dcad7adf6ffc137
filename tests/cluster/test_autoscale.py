"""Autoscaling + placement: parity, pool semantics, drain, provisioning.

The fleet tier's tentpole contract extends to elasticity: every
placement policy and every autoscaler path (grow behind the
provisioning lag, shrink by draining, quarantine interplay) must be
*bit-identical* between the columnar simulator and the per-job-object
reference — digest and node-second accounting both.
"""

import numpy as np
import pytest

from repro.cluster.autoscale import (
    AUTOSCALE_SCHEMA,
    PLACEMENT_BENEFIT,
    PLACEMENT_PACK,
    PLACEMENT_POLICIES,
    PLACEMENT_SPREAD,
    POOL_BASE,
    POOL_ELASTIC,
    AutoscaleController,
    AutoscalePlan,
    AutoscalerConfig,
    NodeSecondsMeter,
    WorkloadEnvelope,
    pool_of,
    reserve_slots,
)
from repro.cluster.fleet import (
    FleetConfig,
    FleetSimulator,
    NodeFailure,
    run_fleet,
)
from repro.cluster.fleet_reference import ObjectFleetReference
from repro.cluster.jobstore import NO_POOL, FleetJobState
from repro.workloads.diurnal import (
    BurstStorm,
    DiurnalProfile,
    FleetToolClass,
    diurnal_batches,
)

AUTO = AutoscalerConfig(
    min_nodes=2,
    max_nodes=8,
    eval_interval_s=300.0,
    provision_lag_s=900.0,
    scale_up_step=3,
    scale_down_step=2,
    hysteresis_windows=2,
    cooldown_s=600.0,
)


def elastic_config(**overrides) -> FleetConfig:
    settings = dict(
        nodes=8, gpus_per_node=2, queue_limit=4,
        deadline_seconds=1800.0, autoscale=AUTO,
    )
    settings.update(overrides)
    return FleetConfig(**settings)


def day_profile(seed: int, jobs: int = 4000) -> DiurnalProfile:
    return DiurnalProfile(
        seed=seed,
        storms=(BurstStorm(start=43_200.0, duration=7_200.0,
                           multiplier=5.0),),
    ).scaled_to(jobs)


def run_both(config, profile):
    batches = diurnal_batches(profile)
    result = FleetSimulator(config, profile.tools).run(batches)
    reference = ObjectFleetReference(config, profile.tools)
    store = reference.run(batches)
    return result, reference, store


def assert_bit_identical(result, reference, store):
    assert result.store_digest == store.digest()
    assert result.jobs_submitted == reference.counts["submitted"]
    assert result.completed == reference.counts["completed"]
    assert result.shed == reference.shed
    assert result.failed == reference.counts["failed"]
    assert result.resubmitted == reference.counts["resubmitted"]
    assert result.provisioned_nodes == reference.counts["provisioned"]
    assert result.decommissioned_nodes == reference.counts["decommissioned"]
    # Node-second parity is exact float equality: both implementations
    # charge the meter at identical instants in identical order.
    assert result.node_seconds == reference.meter.total


class TestAutoscaleParity:
    @pytest.mark.parametrize("policy", PLACEMENT_POLICIES)
    @pytest.mark.parametrize("seed", range(3))
    def test_elastic_day_bit_identical(self, policy, seed):
        config = elastic_config(placement=policy)
        result, reference, store = run_both(config, day_profile(seed))
        assert_bit_identical(result, reference, store)
        assert result.scale_ups > 0  # the storm actually triggers growth

    @pytest.mark.parametrize("policy", PLACEMENT_POLICIES)
    def test_elastic_day_with_failures_bit_identical(self, policy):
        config = elastic_config(
            placement=policy,
            failures=(
                NodeFailure(time=44_000.0, node=0, recovery_seconds=1800.0),
                NodeFailure(time=44_600.0, node=3, recovery_seconds=600.0),
            ),
        )
        result, reference, store = run_both(config, day_profile(1))
        assert_bit_identical(result, reference, store)
        assert result.quarantines >= 1

    def test_failure_targets_never_commissioned_node(self):
        """A failure event aimed at a node that never left the inactive
        elastic pool is a no-op in both implementations."""
        config = elastic_config(
            failures=(
                NodeFailure(time=10.0, node=7, recovery_seconds=60.0),
            ),
        )
        profile = DiurnalProfile(
            users=50, jobs_per_user_day=2.0, days=0.1,
            tick_seconds=300.0, seed=0,
        )
        result, reference, store = run_both(config, profile)
        assert_bit_identical(result, reference, store)
        assert result.quarantines == 0


class TestSpanKeepsPerNodePoolAndEpoch:
    """One placed span can cross pools and commission epochs: the
    shared-column write must not smear the first node's over the rest."""

    def test_recommissioned_elastic_node_inside_a_span(self):
        config = elastic_config()
        profile = day_profile(3)
        batches = diurnal_batches(profile)
        simulator = FleetSimulator(config, profile.tools)
        result = simulator.run(batches)
        reference = ObjectFleetReference(config, profile.tools)
        assert_bit_identical(result, reference, reference.run(batches))
        store = simulator.store
        rows = list(store.rows())
        crossing = 0
        lo = 0
        for batch in batches:
            hi = lo + batch.count
            placed = {
                (row.pool, row.epoch) for row in rows[lo:hi]
                if row.gpu and row.start == row.submit
            }
            if (POOL_BASE, 1) in placed and any(
                pool == POOL_ELASTIC and epoch > 1 for pool, epoch in placed
            ):
                crossing += 1
            lo = hi
        assert crossing > 0  # the fixture really exercises the case
        for row in rows:
            if row.gpu:
                assert row.pool == pool_of(row.destination, AUTO.min_nodes)
                assert row.epoch >= 1
                if row.pool == POOL_BASE:
                    assert row.epoch == 1  # base nodes never re-commission


class TestPoolSemantics:
    def test_pool_of(self):
        assert pool_of(0, 4) == POOL_BASE
        assert pool_of(3, 4) == POOL_BASE
        assert pool_of(4, 4) == POOL_ELASTIC
        assert pool_of(999, 4) == POOL_ELASTIC
        assert type(pool_of(3, 4)) is int

    def test_pool_of_is_elementwise(self):
        """The job store derives its ``pool`` column with the same rule."""
        nodes = np.array([0, 3, 4, 999], dtype=np.int64)
        assert pool_of(nodes, 4).tolist() == [
            pool_of(int(node), 4) for node in nodes
        ]

    def test_columns_record_pools(self):
        config = elastic_config()
        profile = day_profile(2)
        simulator = FleetSimulator(config, profile.tools)
        result = simulator.run(diurnal_batches(profile))
        pools = set()
        for row in simulator.store.rows():
            if row.state is FleetJobState.COMPLETED and row.gpu:
                pools.add(row.pool)
                assert row.epoch >= 1  # placed on a commissioned node
        assert pools == {POOL_BASE, POOL_ELASTIC}
        assert result.peak_nodes > AUTO.min_nodes

    def test_cpu_jobs_have_no_pool(self):
        config = elastic_config()
        tools = (FleetToolClass("cpu_tool", False, 0.0, 300.0, 1.0),)
        profile = DiurnalProfile(
            users=100, jobs_per_user_day=2.0, days=0.1,
            tick_seconds=60.0, seed=0, tools=tools,
        )
        simulator = FleetSimulator(config, tools)
        simulator.run(diurnal_batches(profile))
        assert all(row.pool == NO_POOL for row in simulator.store.rows())

    def test_static_fleet_reports_no_elasticity(self):
        config = FleetConfig(nodes=4, gpus_per_node=2)
        profile = DiurnalProfile(
            users=200, jobs_per_user_day=2.0, days=0.1,
            tick_seconds=60.0, seed=0,
        )
        result = run_fleet(config, profile)
        assert result.scale_ups == 0
        assert result.scale_downs == 0
        assert result.pool_base_nodes == 4
        assert result.peak_nodes == 4
        assert result.pool_timeline == ((0.0, 4, 0),)
        # A static fleet charges every node for the whole horizon.
        assert result.node_seconds == pytest.approx(4 * result.end_time)

    def test_provision_lag_delays_growth(self):
        """Ordered nodes arrive warm only provision_lag_s later: the
        pool timeline shows pending orders strictly before the active
        count rises above the base pool."""
        config = elastic_config()
        result = run_fleet(config, day_profile(3))
        first_pending = next(
            (t for t, _active, pending in result.pool_timeline if pending),
            None,
        )
        first_grown = next(
            (t for t, active, _pending in result.pool_timeline
             if active > AUTO.start_nodes),
            None,
        )
        assert first_pending is not None and first_grown is not None
        assert first_grown >= first_pending + AUTO.provision_lag_s

    def test_scale_down_drains_back_to_base(self):
        """After the day's tail the elastic pool drains back down."""
        result = run_fleet(elastic_config(), day_profile(4))
        assert result.scale_downs > 0
        assert result.decommissioned_nodes > 0
        final_active = result.pool_timeline[-1][1]
        assert final_active < result.peak_nodes

    def test_node_seconds_below_static_equivalent(self):
        result = run_fleet(elastic_config(), day_profile(5))
        static_cost = AUTO.max_nodes * result.end_time
        assert result.node_seconds < static_cost


class TestDrainDuringStorm:
    """Regression for the mid-window node-departure bug: draining a
    pool while a burst storm keeps queues full must resubmit queued
    work through the hop path, never strand or double-run it."""

    def test_drain_resubmits_queued_jobs(self):
        # Aggressive scale-down against a bursty profile.  Queues are
        # per-node and freshly provisioned nodes arrive idle, so the
        # storm's wake leaves straggler queues on old nodes while new
        # capacity idles — utilisation drops, the scale-in drains
        # victims queue-and-all, and their leftovers resubmit through
        # the hop path (no failures configured, so every resubmit here
        # comes from a drain).
        auto = AutoscalerConfig(
            min_nodes=1, max_nodes=6, eval_interval_s=200.0,
            provision_lag_s=600.0, scale_up_step=5, scale_down_step=5,
            hysteresis_windows=1, cooldown_s=200.0,
            scale_down_utilization=0.67,
        )
        config = FleetConfig(
            nodes=6, gpus_per_node=1, queue_limit=4,
            deadline_seconds=30_000.0, autoscale=auto,
        )
        tools = (
            FleetToolClass("long_gpu", True, 1800.0, 7200.0, 1.0),
        )
        profile = DiurnalProfile(
            users=120, jobs_per_user_day=4.0, days=0.5,
            tick_seconds=300.0, seed=5, tools=tools,
            storms=(BurstStorm(start=7200.0, duration=3600.0,
                               multiplier=8.0),),
        )
        result, reference, store = run_both(config, profile)
        assert_bit_identical(result, reference, store)
        assert result.scale_downs > 0
        # Draining with non-empty queues goes through the resubmit path.
        assert result.resubmitted > 0
        # Ledger stays balanced: nothing stranded on drained nodes.
        shed_total = sum(result.shed.values())
        assert result.jobs_submitted == (
            result.completed + shed_total + result.failed
        )

    def test_draining_node_failure_decommissions_immediately(self):
        """A node that fails while draining decommissions on the spot
        (no recovery event) — in both implementations."""
        auto = AutoscalerConfig(
            min_nodes=1, max_nodes=4, eval_interval_s=100.0,
            provision_lag_s=200.0, scale_up_step=3, scale_down_step=3,
            hysteresis_windows=1, cooldown_s=100.0,
        )
        config = FleetConfig(
            nodes=4, gpus_per_node=1, queue_limit=2,
            deadline_seconds=14_400.0, autoscale=auto,
            failures=tuple(
                NodeFailure(time=t, node=node, recovery_seconds=900.0)
                for node, t in ((1, 5000.0), (2, 5100.0), (3, 5200.0))
            ),
        )
        tools = (FleetToolClass("long_gpu", True, 3600.0, 7200.0, 1.0),)
        profile = DiurnalProfile(
            users=60, jobs_per_user_day=3.0, days=0.25,
            tick_seconds=600.0, seed=4, tools=tools,
        )
        result, reference, store = run_both(config, profile)
        assert_bit_identical(result, reference, store)


class TestAutoscaleController:
    def test_validation(self):
        with pytest.raises(ValueError):
            AutoscalerConfig(min_nodes=0)
        with pytest.raises(ValueError):
            AutoscalerConfig(min_nodes=10, max_nodes=5)
        with pytest.raises(ValueError):
            AutoscalerConfig(eval_interval_s=0.0)
        with pytest.raises(ValueError):
            AutoscalerConfig(provision_lag_s=-1.0)
        with pytest.raises(ValueError):
            AutoscalerConfig(scale_up_step=0)
        with pytest.raises(ValueError):
            AutoscalerConfig(hysteresis_windows=0)
        with pytest.raises(ValueError):
            AutoscalerConfig(min_nodes=2, max_nodes=8, initial_nodes=1)

    @pytest.mark.parametrize("knob, bad", [
        ("eval_interval_s", float("nan")),
        ("eval_interval_s", float("inf")),
        ("provision_lag_s", float("nan")),
        ("provision_lag_s", float("inf")),
        ("cooldown_s", float("nan")),
        ("cooldown_s", float("inf")),
        ("cooldown_s", -1.0),
    ])
    def test_non_finite_instants_rejected(self, knob, bad):
        """Each of these becomes an event-heap instant; a NaN one used
        to end the run in a 'ledger out of balance' RuntimeError."""
        with pytest.raises(ValueError, match=knob):
            AutoscalerConfig(min_nodes=2, max_nodes=4, **{knob: bad})

    def test_hysteresis_defers_action(self):
        auto = AutoscalerConfig(
            min_nodes=2, max_nodes=10, hysteresis_windows=3,
            cooldown_s=0.0, scale_up_step=4,
        )
        controller = AutoscaleController(auto)
        pressure = dict(
            queued_jobs=100, shed_delta=0, busy_slots=16,
            usable_slots=16, usable_nodes=2, provisioned=2, removable=0,
        )
        assert controller.evaluate(300.0, **pressure) == 0
        assert controller.evaluate(600.0, **pressure) == 0
        assert controller.evaluate(900.0, **pressure) == 4

    def test_cooldown_rate_limits(self):
        auto = AutoscalerConfig(
            min_nodes=2, max_nodes=10, hysteresis_windows=1,
            cooldown_s=1000.0, scale_up_step=2,
        )
        controller = AutoscaleController(auto)
        pressure = dict(
            queued_jobs=100, shed_delta=0, busy_slots=16,
            usable_slots=16, usable_nodes=2, provisioned=2, removable=0,
        )
        assert controller.evaluate(300.0, **pressure) == 2
        assert controller.evaluate(600.0, **pressure) == 0  # cooling down
        assert controller.evaluate(1400.0, **pressure) == 2

    def test_scale_down_bounded_by_removable(self):
        auto = AutoscalerConfig(
            min_nodes=2, max_nodes=10, hysteresis_windows=1,
            cooldown_s=0.0, scale_down_step=5,
        )
        controller = AutoscaleController(auto)
        calm = dict(
            queued_jobs=0, shed_delta=0, busy_slots=0,
            usable_slots=64, usable_nodes=8, provisioned=8, removable=3,
        )
        assert controller.evaluate(300.0, **calm) == -3

    def test_meter_integrates_piecewise(self):
        meter = NodeSecondsMeter(4)
        meter.set_active(10.0, 6)   # 4 nodes x 10 s
        meter.set_active(20.0, 2)   # 6 nodes x 10 s
        meter.advance(30.0)         # 2 nodes x 10 s
        assert meter.total == pytest.approx(40.0 + 60.0 + 20.0)

    def test_reserve_slots_floor(self):
        assert reserve_slots(0.10, 10, 8) == 8
        assert reserve_slots(0.0, 10, 8) == 0
        assert reserve_slots(0.25, 3, 2) == 1  # floor of 1.5


class TestPlacementSemantics:
    def test_pack_prefers_fullest_node_spread_prefers_lowest_index(self):
        """Craft a state where node 0 has *more* free slots than node 2:
        spread places the next job on node 0 (lowest usable index),
        pack on node 2 (fewest free slots)."""
        from repro.workloads.diurnal import ArrivalBatch

        tools = (
            FleetToolClass("short_gpu", True, 1000.0, 4000.0, 0.5),
            FleetToolClass("long_gpu", True, 3000.0, 12_000.0, 0.5),
        )
        # t=0: node0 takes 4 short jobs, node1 takes 4 long, node2
        # takes 2 long.  At t=1500 node0 is fully free (4 slots) and
        # node2 has 2 free — the probe job disambiguates the policies.
        batches = [
            ArrivalBatch(time=0.0, tool=0, count=4),
            ArrivalBatch(time=0.0, tool=1, count=6),
            ArrivalBatch(time=1500.0, tool=0, count=1),
        ]

        def probe_destination(policy):
            config = FleetConfig(
                nodes=3, gpus_per_node=4, placement=policy
            )
            simulator = FleetSimulator(config, tools)
            simulator.run(batches)
            return simulator.store.row(10).destination

        assert probe_destination(PLACEMENT_SPREAD) == 0
        assert probe_destination(PLACEMENT_PACK) == 2

    def test_benefit_aware_degrades_low_benefit_early(self):
        """Low-benefit degradable classes never queue under
        benefit-aware: they run on spare capacity or fall to the CPU
        arm, leaving the queues to high-benefit tools."""
        config = FleetConfig(
            nodes=2, gpus_per_node=2, queue_limit=4,
            placement=PLACEMENT_BENEFIT, benefit_threshold=12.0,
            gpu_reserve_fraction=0.25,
        )
        profile = DiurnalProfile(
            users=2000, jobs_per_user_day=3.0, days=0.25,
            tick_seconds=60.0, seed=8,
        )
        simulator = FleetSimulator(config, profile.tools)
        result = simulator.run(diurnal_batches(profile))
        assert result.degraded > 0
        # A job shed from a queue keeps its queue placement (pool set,
        # gpu still 0).  Under benefit-aware only the high-benefit
        # class may queue, so no low-benefit (tool 0) job can carry
        # queue evidence.
        queue_shed_tools = {
            row.tool for row in simulator.store.rows()
            if row.state is FleetJobState.SHED
            and row.pool != NO_POOL and not row.gpu
        }
        assert 0 not in queue_shed_tools


class TestAutoscalePlan:
    """The declarative gyan.autoscale/v1 plan the verifier checks."""

    def plan_dict(self, **workload):
        data = {
            "schema": AUTOSCALE_SCHEMA,
            "name": "unit",
            "pool": {
                "gpus_per_node": 4,
                "min_nodes": 2,
                "max_nodes": 10,
                "eval_interval_s": 300.0,
                "provision_lag_s": 600.0,
                "hysteresis_windows": 2,
            },
        }
        if workload:
            data["workload"] = workload
        return data

    def test_from_dict_reuses_runtime_config(self):
        plan = AutoscalePlan.from_dict(self.plan_dict())
        assert isinstance(plan.config, AutoscalerConfig)
        assert plan.config.max_nodes == 10
        assert plan.max_slots == 40
        assert plan.reaction_s == 2 * 300.0 + 600.0
        assert plan.envelope is None

    def test_peak_slot_demand_is_littles_law_ceiling(self):
        envelope = WorkloadEnvelope(
            peak_gpu_jobs_per_hour=3601, mean_gpu_seconds=120.0
        )
        # 3601/h x 120 s / 3600 = 120.03... -> 121 slots.
        assert envelope.peak_slot_demand == 121

    def test_wrong_schema_rejected(self):
        data = self.plan_dict()
        data["schema"] = "gyan.fleet/v1"
        with pytest.raises(ValueError, match="not a gyan.autoscale/v1"):
            AutoscalePlan.from_dict(data)

    def test_unknown_pool_key_rejected(self):
        data = self.plan_dict()
        data["pool"]["warm_pool_size"] = 5
        with pytest.raises(ValueError, match="warm_pool_size"):
            AutoscalePlan.from_dict(data)

    def test_pool_validation_is_the_runtime_validation(self):
        data = self.plan_dict()
        data["pool"]["max_nodes"] = 1  # < min_nodes: runtime rule
        with pytest.raises(ValueError, match="max_nodes >= min_nodes"):
            AutoscalePlan.from_dict(data)

    def test_envelope_validation(self):
        with pytest.raises(ValueError):
            WorkloadEnvelope(peak_gpu_jobs_per_hour=0, mean_gpu_seconds=1)
        with pytest.raises(ValueError):
            WorkloadEnvelope(
                peak_gpu_jobs_per_hour=1, mean_gpu_seconds=1, deadline_s=0
            )
        data = self.plan_dict(
            peak_gpu_jobs_per_hour=1800, mean_gpu_seconds=60.0
        )
        plan = AutoscalePlan.from_dict(data)
        assert plan.envelope.peak_slot_demand == 30


class TestElasticityMetrics:
    """The gyan_fleet_pool_* / cost metric surface of elastic runs."""

    def test_elastic_metrics_mirror_the_ledger(self):
        config = elastic_config()
        profile = day_profile(0)
        simulator = FleetSimulator(config, profile.tools)
        result = simulator.run(diurnal_batches(profile))
        metrics = simulator.metrics
        assert metrics.value(
            "gyan_fleet_scale_events_total", direction="up"
        ) == result.scale_ups
        assert metrics.value(
            "gyan_fleet_scale_events_total", direction="down"
        ) == result.scale_downs
        assert metrics.value(
            "gyan_fleet_pool_node_events_total", event="provisioned"
        ) == result.provisioned_nodes
        assert metrics.value(
            "gyan_fleet_node_seconds_total"
        ) == pytest.approx(result.node_seconds)
        # Final pool gauges: base stays pinned, elastic has drained
        # down from the peak.
        assert metrics.value(
            "gyan_fleet_pool_nodes", pool="base"
        ) == AUTO.min_nodes
        assert metrics.value(
            "gyan_fleet_pool_nodes", pool="elastic"
        ) <= result.peak_nodes - AUTO.min_nodes

    def test_static_fleet_registers_no_pool_families(self):
        profile = DiurnalProfile(
            users=100, jobs_per_user_day=2.0, days=0.1,
            tick_seconds=60.0, seed=0,
        )
        simulator = FleetSimulator(
            FleetConfig(nodes=4, gpus_per_node=2), profile.tools
        )
        simulator.run(diurnal_batches(profile))
        assert not any("pool" in name or "scale" in name
                       for name in simulator.metrics.families())
