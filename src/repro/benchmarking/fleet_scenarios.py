"""Named fleet-core scenarios for ``python -m repro bench --suite fleet_core``.

Where the sim-core suite times the single-host hot paths (the object
tier), this suite times the columnar fleet tier end to end — every
scenario runs :class:`~repro.cluster.fleet.FleetSimulator` or its
arrival generator:

``fleet-map-throughput``
    The headline: one simulated day of diurnal traffic — ≥1M jobs
    across 1000 nodes × 8 GPUs — through the columnar
    :class:`~repro.cluster.fleet.FleetSimulator`.  ``work_units`` is
    mapping decisions, so the report's ``work_units_per_second`` is the
    *mapped-jobs-per-wall-second* figure and ``simulated_seconds``
    yields sim-seconds per wall-second.
``fleet-storm-surge``
    A deliberately undersized fleet hit by a burst storm: bounded
    queues fill, deadlines expire, degradable classes fall to the CPU
    arm and node failures force resubmit chains — the resilience-path
    cost at fleet scale.
``diurnal-generate``
    The seeded diurnal workload generator producing a ≥1M-job day —
    the cost of the arrival side of the headline scenario.
``fleet-policy-spread`` / ``fleet-policy-pack`` /
``fleet-policy-benefit-aware``
    The canonical A/B storm day (same diurnal seed, same midday surge,
    see :func:`repro.workloads.diurnal.ab_storm_profile`) under each
    placement policy — the three runs CI diffs against each other.
``fleet-autoscale-day``
    The headline diurnal day on an elastic node pool: the autoscaler
    grows into the working-hours peak behind the provisioning lag and
    drains back to the base pool overnight.

Sizes shrink under ``--quick`` (the CI ``fleet-bench-smoke``
configuration: 10 nodes, ~10k jobs) but the schema and scenario set
stay identical.
"""

from __future__ import annotations

from repro.benchmarking.harness import BenchScenario, RunOutcome
from repro.cluster.autoscale import PLACEMENT_POLICIES

SUITE_NAME = "fleet_core"

#: The headline fleet: the paper's cluster-shaped claim at scale.
FLEET_NODES = 1000
FLEET_GPUS_PER_NODE = 8
FLEET_JOBS = 1_100_000
QUICK_FLEET_NODES = 10
QUICK_FLEET_JOBS = 10_000

SURGE_NODES = 50
SURGE_JOBS = 200_000
QUICK_SURGE_NODES = 5
QUICK_SURGE_JOBS = 4_000

GENERATE_JOBS = 1_100_000
QUICK_GENERATE_JOBS = 100_000

#: Policy A/B: the canonical storm fixture (see
#: :data:`repro.cluster.fleet.AB_FLEET_JOBS`) shrunk under ``--quick``.
POLICY_JOBS = 40_000
QUICK_POLICY_JOBS = 8_000

AUTOSCALE_NODES = 1000
AUTOSCALE_MIN_NODES = 250
AUTOSCALE_JOBS = 1_100_000
QUICK_AUTOSCALE_NODES = 10
QUICK_AUTOSCALE_MIN_NODES = 3
QUICK_AUTOSCALE_JOBS = 10_000


def _throughput_scenario(nodes: int, jobs: int) -> BenchScenario:
    def setup():
        from repro.cluster.fleet import FleetConfig
        from repro.workloads.diurnal import DiurnalProfile, diurnal_batches

        profile = DiurnalProfile(seed=42).scaled_to(jobs)
        config = FleetConfig(nodes=nodes, gpus_per_node=FLEET_GPUS_PER_NODE)
        return config, profile.tools, diurnal_batches(profile)

    def run(context) -> RunOutcome:
        from repro.cluster.fleet import FleetSimulator

        config, tools, batches = context
        result = FleetSimulator(config, tools).run(batches)
        return RunOutcome(
            simulated_seconds=result.end_time,
            work_units=float(result.mapping_decisions),
        )

    return BenchScenario(
        name="fleet-map-throughput",
        description="one diurnal day of fleet traffic through the columnar "
                    "simulator (work_units = mapping decisions)",
        setup=setup,
        run=run,
        workload={"nodes": nodes, "gpus_per_node": FLEET_GPUS_PER_NODE,
                  "target_jobs": jobs, "seed": 42},
    )


def _surge_scenario(nodes: int, jobs: int) -> BenchScenario:
    def setup():
        from repro.cluster.fleet import FleetConfig, NodeFailure
        from repro.workloads.diurnal import (
            BurstStorm,
            DiurnalProfile,
            diurnal_batches,
        )

        profile = DiurnalProfile(
            seed=7,
            storms=(BurstStorm(start=43_200.0, duration=7_200.0,
                               multiplier=20.0),),
        ).scaled_to(jobs)
        config = FleetConfig(
            nodes=nodes,
            gpus_per_node=FLEET_GPUS_PER_NODE,
            queue_limit=32,
            deadline_seconds=1_800.0,
            failures=(
                NodeFailure(time=44_000.0, node=0,
                            recovery_seconds=3_600.0),
                NodeFailure(time=45_000.0, node=1,
                            recovery_seconds=1_800.0),
            ),
        )
        return config, profile.tools, diurnal_batches(profile)

    def run(context) -> RunOutcome:
        from repro.cluster.fleet import FleetSimulator

        config, tools, batches = context
        result = FleetSimulator(config, tools).run(batches)
        return RunOutcome(
            simulated_seconds=result.end_time,
            work_units=float(result.mapping_decisions),
        )

    return BenchScenario(
        name="fleet-storm-surge",
        description="an undersized fleet under a 20x burst storm with node "
                    "failures (queues, sheds, degrades, resubmit chains)",
        setup=setup,
        run=run,
        workload={"nodes": nodes, "gpus_per_node": FLEET_GPUS_PER_NODE,
                  "target_jobs": jobs, "storm_multiplier": 20,
                  "failures": 2, "seed": 7},
    )


def _policy_scenario(policy: str, jobs: int) -> BenchScenario:
    def setup():
        from repro.cluster.fleet import ab_fleet_config
        from repro.workloads.diurnal import ab_storm_profile, diurnal_batches

        config = ab_fleet_config(placement=policy)
        profile = ab_storm_profile(jobs)
        return config, profile.tools, diurnal_batches(profile)

    def run(context) -> RunOutcome:
        from repro.cluster.fleet import FleetSimulator

        config, tools, batches = context
        result = FleetSimulator(config, tools).run(batches)
        return RunOutcome(
            simulated_seconds=result.end_time,
            work_units=float(result.mapping_decisions),
        )

    return BenchScenario(
        name=f"fleet-policy-{policy}",
        description=f"the canonical A/B storm day under the {policy} "
                    "placement policy (same seed across all three)",
        setup=setup,
        run=run,
        workload={"policy": policy, "target_jobs": jobs,
                  "fixture": "ab_storm_profile"},
    )


def _autoscale_scenario(nodes: int, min_nodes: int, jobs: int) -> BenchScenario:
    def setup():
        from repro.cluster.autoscale import AutoscalerConfig
        from repro.cluster.fleet import FleetConfig
        from repro.workloads.diurnal import DiurnalProfile, diurnal_batches

        profile = DiurnalProfile(seed=42).scaled_to(jobs)
        config = FleetConfig(
            nodes=nodes,
            gpus_per_node=FLEET_GPUS_PER_NODE,
            autoscale=AutoscalerConfig(
                min_nodes=min_nodes,
                max_nodes=nodes,
                scale_up_step=max(1, nodes // 10),
                scale_down_step=max(1, nodes // 20),
            ),
        )
        return config, profile.tools, diurnal_batches(profile)

    def run(context) -> RunOutcome:
        from repro.cluster.fleet import FleetSimulator

        config, tools, batches = context
        result = FleetSimulator(config, tools).run(batches)
        return RunOutcome(
            simulated_seconds=result.end_time,
            work_units=float(result.mapping_decisions),
        )

    return BenchScenario(
        name="fleet-autoscale-day",
        description="the headline diurnal day on an elastic pool: grows "
                    "into the peak, drains through the night",
        setup=setup,
        run=run,
        workload={"nodes": nodes, "min_nodes": min_nodes,
                  "gpus_per_node": FLEET_GPUS_PER_NODE,
                  "target_jobs": jobs, "seed": 42},
    )


def _generate_scenario(jobs: int) -> BenchScenario:
    def setup():
        from repro.workloads.diurnal import DiurnalProfile

        return DiurnalProfile(seed=42).scaled_to(jobs)

    def run(profile) -> RunOutcome:
        from repro.workloads.diurnal import diurnal_batches

        batches = diurnal_batches(profile)
        return RunOutcome(
            work_units=float(sum(batch.count for batch in batches))
        )

    return BenchScenario(
        name="diurnal-generate",
        description="seeded diurnal arrival generation for a fleet-sized "
                    "day (work_units = jobs generated)",
        setup=setup,
        run=run,
        workload={"target_jobs": jobs, "seed": 42},
    )


def fleet_core_suite(quick: bool = False) -> list[BenchScenario]:
    """The scenario set behind ``BENCH_fleet_core.json``."""
    return [
        _throughput_scenario(
            QUICK_FLEET_NODES if quick else FLEET_NODES,
            QUICK_FLEET_JOBS if quick else FLEET_JOBS,
        ),
        _surge_scenario(
            QUICK_SURGE_NODES if quick else SURGE_NODES,
            QUICK_SURGE_JOBS if quick else SURGE_JOBS,
        ),
        _generate_scenario(QUICK_GENERATE_JOBS if quick else GENERATE_JOBS),
        *(
            _policy_scenario(
                policy, QUICK_POLICY_JOBS if quick else POLICY_JOBS
            )
            for policy in PLACEMENT_POLICIES
        ),
        _autoscale_scenario(
            QUICK_AUTOSCALE_NODES if quick else AUTOSCALE_NODES,
            QUICK_AUTOSCALE_MIN_NODES if quick else AUTOSCALE_MIN_NODES,
            QUICK_AUTOSCALE_JOBS if quick else AUTOSCALE_JOBS,
        ),
    ]
