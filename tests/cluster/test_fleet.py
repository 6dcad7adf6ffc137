"""Fleet simulator: columnar-vs-reference parity, determinism, semantics."""

import pytest

from repro.cluster.fleet import (
    FleetConfig,
    FleetSimulator,
    NodeFailure,
    run_fleet,
)
from repro.cluster.fleet_reference import ObjectFleetReference
from repro.cluster.jobstore import FleetJobState
from repro.workloads.diurnal import (
    BurstStorm,
    DiurnalProfile,
    FleetToolClass,
    diurnal_batches,
)

#: A stressed little fleet: queues fill, deadlines expire, nodes die.
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
        result, reference, store = run_both(STRESS_CONFIG, stress_profile(seed))
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


class TestDeterminism:
    def test_two_runs_byte_match(self):
        """The CI double-run contract: identical config + profile gives
        byte-identical deterministic JSON (digest included)."""
        profile = stress_profile(seed=3)
        first = run_fleet(STRESS_CONFIG, profile)
        second = run_fleet(STRESS_CONFIG, profile)
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
        families = simulator.metrics.families()
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
    """`run` reserves the day when it can count it; either way the
    result is the same bytes."""

    def test_generator_input_equals_list_input(self):
        profile = stress_profile(seed=1)
        batches = diurnal_batches(profile)
        from_list = FleetSimulator(STRESS_CONFIG, profile.tools)
        listed = from_list.run(batches)
        from_gen = FleetSimulator(STRESS_CONFIG, profile.tools)
        streamed = from_gen.run(batch for batch in batches)
        assert streamed.to_json() == listed.to_json()
        assert list(from_gen.store.rows()) == list(from_list.store.rows())
        # The list was sized exactly; the generator grew by doubling.
        assert len(from_list.store.state) == len(from_list.store)
        assert len(from_gen.store.state) >= len(from_gen.store)

    def test_empty_and_nonpositive_batches_reserve_nothing(self):
        from repro.workloads.diurnal import ArrivalBatch

        tools = stress_profile(0).tools
        simulator = FleetSimulator(FleetConfig(nodes=2, gpus_per_node=1), tools)
        result = simulator.run([ArrivalBatch(0.0, 0, 0), ArrivalBatch(1.0, 0, -3)])
        assert result.jobs_submitted == 0
        assert len(simulator.store.state) == 0


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
