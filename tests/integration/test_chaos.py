"""End-to-end chaos: a seeded fault plan kills a K80 die mid-workload.

The acceptance contract for the fault-injection layer:

* resilient deployment — every Racon/Bonito job still reaches OK via
  quarantine + backoff + resubmission;
* the whole run is byte-for-byte reproducible per seed;
* the stock deployment under the *same plan* demonstrably loses jobs —
  the delta is the resilience layer's contribution.
"""

from __future__ import annotations

import pytest

from repro.gpusim.errors import NVMLError
from repro.gpusim.faults import (
    SCENARIOS,
    FaultEvent,
    FaultKind,
    InjectionPlan,
    WorkloadSpec,
    build_scenario,
)
from repro.workloads.chaos import ChaosJobResult, ChaosRunResult, run_chaos

#: Device 1 falls off the bus while a job occupies it (the unit Bonito
#: run spans t=5.0), then NVML flakes during the next mapping query.
KILLER_PLAN = InjectionPlan(
    name="die-under-running-job",
    seed=0,
    events=(
        FaultEvent(time=5.0, kind=FaultKind.DEVICE_LOST, device=1, xid=79),
        FaultEvent(time=6.0, kind=FaultKind.NVML_FLAKE,
                   nvml_code=NVMLError.NVML_ERROR_UNKNOWN),
    ),
)


class TestResilientRun:
    @pytest.fixture(scope="class")
    def result(self):
        return run_chaos(KILLER_PLAN, jobs=8, resilient=True)

    def test_all_jobs_survive(self, result):
        assert result.crashed is None
        assert result.survived == 8
        assert result.lost == 0
        assert result.all_ok

    def test_faults_actually_fired(self, result):
        assert result.faults_fired == 2
        assert result.nvml_errors_served >= 1

    def test_device_death_was_quarantined(self, result):
        kinds = [kind for _, kind in result.quarantine_events]
        assert "quarantine" in kinds
        assert all(dev == "1" for dev, _ in result.quarantine_events)

    def test_killed_job_recovered_via_resubmission(self, result):
        chains = [j for j in result.jobs if j.resubmit_chain]
        assert chains, "the job on the dead die must have been resubmitted"
        assert all(j.state == "ok" for j in chains)
        assert all(len(j.resubmit_chain) >= 2 for j in chains)
        assert all("fallback" in j.destination for j in chains)

    def test_flake_absorbed_without_crashing(self, result):
        # One injected flake is consumed by the backoff retry around the
        # NVML probe (or, past the retry budget, degraded to the CPU arm);
        # either way mapping never crashes.
        assert result.nvml_errors_served >= 1
        assert result.crashed is None


class TestReproducibility:
    def test_byte_for_byte_identical(self):
        first = run_chaos(KILLER_PLAN, jobs=8, resilient=True)
        second = run_chaos(KILLER_PLAN, jobs=8, resilient=True)
        assert first.to_json() == second.to_json()

    def test_seeded_scenarios_reproduce(self):
        plan_a = build_scenario("k80-die-midrun", seed=3)
        plan_b = build_scenario("k80-die-midrun", seed=3)
        assert (run_chaos(plan_a, jobs=6).to_json()
                == run_chaos(plan_b, jobs=6).to_json())

    def test_different_seed_changes_the_run(self):
        base = run_chaos(build_scenario("k80-die-midrun", seed=3), jobs=6)
        other = run_chaos(build_scenario("k80-die-midrun", seed=4), jobs=6)
        assert base.plan != other.plan
        assert base.to_json() != other.to_json()


class TestStockCounterpart:
    """The same plan without the resilience layer loses jobs."""

    @pytest.fixture(scope="class")
    def result(self):
        return run_chaos(KILLER_PLAN, jobs=8, resilient=False)

    def test_jobs_are_lost(self, result):
        assert not result.all_ok
        assert result.lost > 0

    def test_nvml_flake_crashes_mapping(self, result):
        assert result.crashed is not None
        assert "NVMLError" in result.crashed

    def test_no_recovery_machinery_ran(self, result):
        assert result.quarantine_events == []
        assert all(not j.resubmit_chain for j in result.jobs)
        assert result.launch_requeues == 0

    def test_resilience_delta_is_positive(self, result):
        resilient = run_chaos(KILLER_PLAN, jobs=8, resilient=True)
        assert resilient.survived > result.survived


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
class TestContainerFlaky:
    """The daemon failures of ``container-flaky`` reach a container
    runner: a resilient run retries them, a stock run loses jobs."""

    def test_resilient_run_retries_every_failure(self, seed):
        result = run_chaos(build_scenario("container-flaky", seed=seed))
        assert result.container_failures_served > 0
        assert result.launch_requeues > 0
        assert result.all_ok

    def test_stock_run_loses_jobs(self, seed):
        result = run_chaos(build_scenario("container-flaky", seed=seed),
                           resilient=False)
        assert result.launch_requeues == 0
        assert result.lost > 0

    def test_embedded_workload_keeps_the_dynamic_destination(self, seed):
        plan = build_scenario("container-flaky", seed=seed)
        plan = InjectionPlan(name=plan.name, seed=plan.seed,
                             events=plan.events, workload=WorkloadSpec())
        result = run_chaos(plan)
        assert result.container_failures_served == 0
        assert all(j.destination == "local_gpu" for j in result.jobs)


class TestChaosCli:
    def test_resilient_exit_zero(self, capsys):
        from repro.cli import main

        assert main(["faults", "--scenario", "k80-die-midrun",
                     "--seed", "3", "--jobs", "4"]) == 0
        out = capsys.readouterr().out
        assert "4/4" in out

    def test_stock_flaky_exit_one(self, capsys):
        from repro.cli import main

        assert main(["faults", "--scenario", "nvml-flaky",
                     "--jobs", "4", "--no-resilience"]) == 1
        out = capsys.readouterr().out
        assert "survived:" in out

    def test_plan_file_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "plan.json"
        path.write_text(KILLER_PLAN.to_json())
        assert main(["faults", "--plan", str(path), "--jobs", "2"]) == 0
        assert "die-under-running-job" in capsys.readouterr().out


class TestShedSemantics:
    """``shed`` is load management, ``lost`` is damage — counted apart."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_resilient_runs_never_crash(self, name):
        result = run_chaos(build_scenario(name, seed=0), jobs=8,
                           resilient=True)
        assert result.crashed is None
        assert result.lost == 0
        assert result.all_ok

    def test_ledger_identity_holds(self):
        result = run_chaos(KILLER_PLAN, jobs=8, resilient=True)
        assert (result.survived + result.shed + result.lost
                == result.jobs_requested)

    def test_shed_counts_apart_from_lost(self):
        # A synthetic ledger: one OK, one typed shed, one genuine loss.
        result = ChaosRunResult(plan=KILLER_PLAN, resilient=True,
                                jobs_requested=3)
        result.jobs.append(ChaosJobResult(
            tool="racon", state="ok", destination="slurm_cpu",
            resubmit_chain=()))
        result.jobs.append(ChaosJobResult(
            tool="racon", state="deleted", destination=None,
            resubmit_chain=(), shed_reason="queue_full"))
        assert (result.survived, result.shed, result.lost) == (1, 1, 1)
        data = result.to_dict()
        assert data["survived"] == 1
        assert data["shed"] == 1
        assert data["lost"] == 1
        assert result.jobs[1].to_dict()["shed_reason"] == "queue_full"
        assert not result.all_ok  # the loss, not the shed, breaks all_ok

    def test_serialisation_carries_the_shed_key(self):
        data = run_chaos(KILLER_PLAN, jobs=4, resilient=True).to_dict()
        assert data["shed"] == 0
        assert '"shed"' in run_chaos(KILLER_PLAN, jobs=4).to_json()

    def test_burst_storm_chaos_json_is_byte_stable(self):
        first = run_chaos(build_scenario("burst-storm", seed=1),
                          jobs=6).to_json()
        second = run_chaos(build_scenario("burst-storm", seed=1),
                           jobs=6).to_json()
        assert first == second
