"""The ``repro bench`` harness: schema stability and CLI."""

import json

import pytest

from repro.benchmarking.harness import (
    BENCH_SCHEMA,
    BenchScenario,
    RunOutcome,
    run_scenario,
    run_suite,
    validate_report_dict,
)
from repro.benchmarking.scenarios import sim_core_suite, suite_scenarios
from repro.cli import main


def tiny_scenario(name="tiny", simulated=10.0):
    return BenchScenario(
        name=name,
        description="does nothing, quickly",
        setup=lambda: None,
        run=lambda ctx: simulated,
        workload={"size": 1},
    )


class TestHarness:
    def test_repeats_are_timed_individually(self):
        result = run_scenario(tiny_scenario(), repeats=3)
        assert result.repeats == 3
        assert len(result.wall_seconds) == 3
        assert all(w >= 0 for w in result.wall_seconds)

    def test_percentiles_are_order_statistics(self):
        result = run_scenario(tiny_scenario(), repeats=5)
        ordered = sorted(result.wall_seconds)
        assert result.percentile(0.5) == ordered[2]
        assert result.percentile(0.95) == ordered[4]
        assert result.percentile(0.0) == ordered[0]

    def test_throughput_uses_simulated_seconds(self):
        result = run_scenario(tiny_scenario(simulated=100.0), repeats=2)
        assert result.sim_seconds_per_wall_second > 0
        flat = run_scenario(tiny_scenario(simulated=0.0), repeats=2)
        assert flat.sim_seconds_per_wall_second == 0.0

    def test_bad_repeats_rejected(self):
        with pytest.raises(ValueError):
            run_scenario(tiny_scenario(), repeats=0)


class TestReportSchema:
    def test_report_validates_against_schema(self):
        report = run_suite([tiny_scenario()], suite="sim_core", repeats=2)
        assert validate_report_dict(report.as_dict()) == []

    def test_json_round_trips_and_is_sorted(self):
        report = run_suite([tiny_scenario()], suite="sim_core", repeats=1)
        data = json.loads(report.render_json())
        assert data["schema"] == BENCH_SCHEMA
        assert list(data) == sorted(data)
        assert validate_report_dict(data) == []

    def test_validator_flags_problems(self):
        report = run_suite([tiny_scenario()], suite="sim_core", repeats=1)
        data = report.as_dict()
        data["schema"] = "something-else"
        data["scenarios"][0]["wall_seconds"].pop("p95")
        problems = validate_report_dict(data)
        assert any("schema" in p for p in problems)
        assert any("p95" in p for p in problems)

    def test_scenario_key_set_is_fixed(self):
        """The deterministic-schema guarantee: key sets never vary."""
        report = run_suite(
            [tiny_scenario("a"), tiny_scenario("b")], suite="sim_core", repeats=1
        )
        entries = report.as_dict()["scenarios"]
        expected = {
            "name", "description", "repeats", "simulated_seconds",
            "sim_seconds_per_wall_second", "wall_seconds",
            "work_units", "work_units_per_second", "workload",
        }
        assert all(set(entry) == expected for entry in entries)
        assert all(
            set(entry["wall_seconds"]) == {"mean", "p50", "p95", "min", "max"}
            for entry in entries
        )


class TestSimCoreSuite:
    def test_quick_and_full_have_identical_scenario_names(self):
        quick = [s.name for s in sim_core_suite(quick=True)]
        full = [s.name for s in sim_core_suite(quick=False)]
        assert quick == full
        assert "monitor-long-job" in quick and "burst-dispatch" in quick

    def test_quick_suite_runs_and_validates(self):
        scenarios = [
            s for s in sim_core_suite(quick=True)
            if s.name in ("burst-dispatch", "timeline-queries")
        ]
        report = run_suite(scenarios, suite="sim_core", repeats=1, quick=True)
        assert validate_report_dict(report.as_dict()) == []


class TestRunOutcome:
    def test_outcome_carries_work_units(self):
        scenario = BenchScenario(
            name="outcome",
            description="returns a structured outcome",
            setup=lambda: None,
            run=lambda ctx: RunOutcome(simulated_seconds=5.0, work_units=50.0),
            workload={},
        )
        result = run_scenario(scenario, repeats=2)
        assert result.simulated_seconds == 5.0
        assert result.work_units == 50.0
        assert result.work_units_per_second > 0

    def test_plain_float_return_still_works(self):
        result = run_scenario(tiny_scenario(simulated=7.0), repeats=1)
        assert result.simulated_seconds == 7.0
        assert result.work_units == 0.0
        assert result.work_units_per_second == 0.0


class TestFleetCoreSuite:
    def test_suite_scenarios_resolves_both_suites(self):
        assert [s.name for s in suite_scenarios("sim_core", quick=True)] == [
            s.name for s in sim_core_suite(quick=True)
        ]
        fleet = suite_scenarios("fleet_core", quick=True)
        assert "fleet-map-throughput" in [s.name for s in fleet]
        with pytest.raises(ValueError):
            suite_scenarios("nope")

    def test_quick_and_full_have_identical_scenario_names(self):
        quick = [s.name for s in suite_scenarios("fleet_core", quick=True)]
        full = [s.name for s in suite_scenarios("fleet_core", quick=False)]
        assert quick == full

    def test_quick_fleet_throughput_runs_and_validates(self):
        scenarios = [
            s for s in suite_scenarios("fleet_core", quick=True)
            if s.name == "fleet-map-throughput"
        ]
        report = run_suite(scenarios, suite="fleet_core", repeats=1, quick=True)
        data = report.as_dict()
        assert validate_report_dict(data) == []
        entry = data["scenarios"][0]
        assert entry["work_units"] > 0
        assert entry["simulated_seconds"] > 0

    def test_fleet_cli_writes_valid_artifact(self, tmp_path, capsys):
        out = tmp_path / "BENCH_fleet_core.json"
        code = main([
            "bench", "--suite", "fleet_core", "--quick", "--repeats", "1",
            "--scenario", "diurnal-generate", "--output", str(out),
        ])
        assert code == 0
        data = json.loads(out.read_text())
        assert validate_report_dict(data) == []
        assert data["suite"] == "fleet_core"
        assert "diurnal-generate" in capsys.readouterr().out


class TestCli:
    def test_bench_writes_valid_artifact(self, tmp_path, capsys):
        out = tmp_path / "BENCH_sim_core.json"
        code = main([
            "bench", "--quick", "--repeats", "1",
            "--scenario", "burst-dispatch", "--output", str(out),
        ])
        assert code == 0
        data = json.loads(out.read_text())
        assert validate_report_dict(data) == []
        assert data["quick"] is True
        assert "burst-dispatch" in capsys.readouterr().out

    def test_bench_list(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("monitor-long-job", "monitor-csv-export",
                     "burst-dispatch", "chaos-run", "timeline-queries"):
            assert name in out

    def test_bench_unknown_scenario_is_usage_error(self, capsys):
        assert main(["bench", "--scenario", "nope", "--output", ""]) == 2
        assert "unknown scenario" in capsys.readouterr().err

