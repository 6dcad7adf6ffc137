"""Differential A/B tests: placement policies and elastic-vs-static cost.

These are regression pins on *relative* behaviour, not absolutes:

* with capacity unconstrained every policy produces the identical
  ledger (placement order cannot change outcomes, only addresses);
* on the canonical storm fixture benefit-aware strictly beats spread
  on storm-window GPU queue wait *and* sheds no more;
* the autoscaled day costs >=30% fewer node-seconds than the static
  fleet at equal-or-lower shed — the paper-style elasticity claim.

The storm A/B runs are the heavyweight members of the suite, so they
carry the ``perf_guard`` marker.
"""

import pytest

from repro.cluster.autoscale import (
    PLACEMENT_BENEFIT,
    PLACEMENT_POLICIES,
    PLACEMENT_SPREAD,
    AutoscalerConfig,
)
from repro.cluster.fleet import (
    AB_FLEET_GPUS_PER_NODE,
    AB_FLEET_JOBS,
    AB_FLEET_NODES,
    AB_FLEET_QUEUE_LIMIT,
    AB_FLEET_SEED,
    FleetConfig,
    FleetSimulator,
    run_fleet,
)
from repro.cluster.jobstore import gpu_wait_percentile
from repro.workloads.diurnal import (
    AB_STORM_DURATION,
    AB_STORM_START,
    DiurnalProfile,
    ab_storm_profile,
    diurnal_batches,
)

STORM_LO = AB_STORM_START
STORM_HI = AB_STORM_START + AB_STORM_DURATION


class TestUnconstrainedCapacity:
    def test_policies_identical_when_capacity_unconstrained(self):
        """With more slots than peak demand no job ever queues, sheds
        or degrades — so spread, pack and benefit-aware must agree on
        every ledger total (they may only differ on *which* node)."""
        profile = DiurnalProfile(seed=3).scaled_to(20_000)
        batches = diurnal_batches(profile)
        ledgers = []
        for policy in PLACEMENT_POLICIES:
            config = FleetConfig(
                nodes=64, gpus_per_node=8, placement=policy
            )
            result = FleetSimulator(config, profile.tools).run(batches)
            ledgers.append({
                "completed": result.completed,
                "shed": result.shed,
                "failed": result.failed,
                "degraded": result.degraded,
                "mapped_gpu": result.mapped_gpu,
                "mapped_cpu": result.mapped_cpu,
                "queued": result.queued,
            })
        assert ledgers[0] == ledgers[1] == ledgers[2]
        assert ledgers[0]["shed"] == {}
        assert ledgers[0]["degraded"] == 0


@pytest.mark.perf_guard
class TestStormAB:
    """The canonical storm fixture, one policy per run, same seed."""

    @pytest.fixture(scope="class")
    def ab_runs(self):
        profile = ab_storm_profile(AB_FLEET_JOBS, seed=AB_FLEET_SEED)
        batches = diurnal_batches(profile)
        runs = {}
        for policy in PLACEMENT_POLICIES:
            config = FleetConfig(
                nodes=AB_FLEET_NODES,
                gpus_per_node=AB_FLEET_GPUS_PER_NODE,
                queue_limit=AB_FLEET_QUEUE_LIMIT,
                placement=policy,
            )
            simulator = FleetSimulator(config, profile.tools)
            result = simulator.run(batches)
            runs[policy] = (
                result,
                gpu_wait_percentile(
                    simulator.store, 0.95, STORM_LO, STORM_HI
                ),
            )
        return runs

    def test_same_workload_every_policy(self, ab_runs):
        submitted = {
            result.jobs_submitted for result, _p95 in ab_runs.values()
        }
        assert len(submitted) == 1

    def test_benefit_aware_beats_spread_on_storm_p95(self, ab_runs):
        """The headline A/B: reserving slots for high-benefit tools and
        degrading low-benefit work early keeps the GPU queue short
        through the storm."""
        _spread, spread_p95 = ab_runs[PLACEMENT_SPREAD]
        _benefit, benefit_p95 = ab_runs[PLACEMENT_BENEFIT]
        assert benefit_p95 < spread_p95
        # The storm actually stresses spread; the fixture is tuned so
        # its p95 is a real queue wait, not noise.
        assert spread_p95 >= 600.0

    def test_benefit_aware_sheds_no_more_than_spread(self, ab_runs):
        spread, _ = ab_runs[PLACEMENT_SPREAD]
        benefit, _ = ab_runs[PLACEMENT_BENEFIT]
        assert sum(benefit.shed.values()) <= sum(spread.shed.values())

    def test_benefit_aware_trades_degrades_for_waits(self, ab_runs):
        """The mechanism behind the p95 win: low-benefit work lands on
        the CPU arm instead of camping in GPU queues."""
        spread, _ = ab_runs[PLACEMENT_SPREAD]
        benefit, _ = ab_runs[PLACEMENT_BENEFIT]
        assert benefit.degraded > spread.degraded


@pytest.mark.perf_guard
class TestElasticCost:
    def test_autoscaled_day_saves_30_percent_node_seconds(self):
        """The acceptance bar: >=30% fewer node-seconds than the static
        fleet on the same diurnal day, at equal-or-lower shed."""
        profile = DiurnalProfile(seed=42).scaled_to(110_000)
        static = run_fleet(
            FleetConfig(nodes=100, gpus_per_node=8), profile
        )
        auto = AutoscalerConfig(
            min_nodes=25, max_nodes=100,
            scale_up_step=10, scale_down_step=5,
        )
        elastic = run_fleet(
            FleetConfig(nodes=100, gpus_per_node=8, autoscale=auto),
            profile,
        )
        assert sum(elastic.shed.values()) <= sum(static.shed.values())
        assert elastic.node_seconds <= 0.70 * static.node_seconds
        # Sanity on the comparison: same workload, both fully drained.
        assert elastic.jobs_submitted == static.jobs_submitted
        assert static.node_seconds == pytest.approx(
            100 * static.end_time
        )
