"""The dynamic happens-before layer: ties, pruning, DET5xx, replay."""

from __future__ import annotations

import json

import pytest

from repro.analysis.findings import Severity
from repro.analysis.race import checker
from repro.analysis.race.clock_shim import (
    PermutingClock,
    Schedule,
    member_label,
)
from repro.analysis.race.driver import (
    RaceOptions,
    run_race,
    run_schedule_replay,
)
from repro.gpusim.footprint import FootprintRecorder


class TestPermutingClock:
    def test_baseline_order_matches_core_clock(self):
        fired = []
        clock = PermutingClock()
        clock.call_at(1.0, lambda now: fired.append("a"))
        clock.call_at(1.0, lambda now: fired.append("b"))
        clock.call_at(0.5, lambda now: fired.append("early"))
        clock.advance_to(2.0)
        assert fired == ["early", "a", "b"]

    def test_tie_recorded_for_unkeyed_pair(self):
        clock = PermutingClock()
        clock.call_at(1.0, lambda now: None)
        clock.call_at(1.0, lambda now: None)
        clock.advance_to(2.0)
        assert len(clock.ties) == 1
        assert clock.ties[0].when == 1.0
        assert len(clock.ties[0].members) == 2

    def test_keyed_timers_are_not_ties(self):
        fired = []
        clock = PermutingClock()
        clock.call_at(1.0, lambda now: fired.append("z"), key="z")
        clock.call_at(1.0, lambda now: fired.append("a"), key="a")
        clock.advance_to(2.0)
        assert clock.ties == []
        assert fired == ["a", "z"]  # key order, not registration order

    def test_schedule_flips_firing_order(self):
        fired = []
        clock = PermutingClock(
            schedule=Schedule(scenario="t", flips={0: (1, 0)})
        )
        clock.call_at(1.0, lambda now: fired.append("a"))
        clock.call_at(1.0, lambda now: fired.append("b"))
        clock.advance_to(2.0)
        assert fired == ["b", "a"]

    def test_bad_permutation_rejected(self):
        from repro.gpusim.errors import ClockError

        clock = PermutingClock(
            schedule=Schedule(scenario="t", flips={0: (0, 0)})
        )
        clock.call_at(1.0, lambda now: None)
        clock.call_at(1.0, lambda now: None)
        with pytest.raises(ClockError):
            clock.advance_to(2.0)

    def test_horizon_rejected(self):
        from repro.gpusim.errors import ClockError

        clock = PermutingClock(schedule=Schedule(scenario="t", flips={}))
        for when in (2.0**53, float("inf"), float("nan")):
            with pytest.raises(ClockError, match=r"below 2\*\*53 s"):
                clock.advance_to(when)
        assert clock.now == 0.0

    def test_footprints_attributed_per_member(self):
        from repro.gpusim.clock import Timeline

        recorder = FootprintRecorder()
        clock = PermutingClock(recorder=recorder)
        timeline = Timeline()
        clock.call_at(1.0, lambda now: timeline.record(now, "x"))
        clock.call_at(1.0, lambda now: None)
        with recorder.installed():
            clock.advance_to(2.0)
        writer = recorder.footprint_for(member_label(0, 0))
        idle = recorder.footprint_for(member_label(0, 1))
        assert "timeline" in writer.writes
        assert not idle.reads and not idle.writes
        assert not writer.conflicts_with(idle)


class TestScheduleSerialisation:
    def test_round_trips_via_json(self, tmp_path):
        schedule = Schedule(scenario="tie-demo", flips={0: (1, 0)})
        path = tmp_path / "sched.json"
        path.write_text(json.dumps(schedule.to_dict()))
        loaded = Schedule.from_file(path)
        assert loaded.scenario == "tie-demo"
        assert loaded.flips == {0: (1, 0)}

    def test_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "not-a-schedule"}))
        with pytest.raises(ValueError):
            Schedule.from_file(path)


class TestCheckScenario:
    def test_tie_demo_reports_det501_with_minimal_schedule(self):
        result = checker.check_scenario(checker.get_scenario("tie-demo"))
        assert [f.rule_id for f in result.findings] == ["DET501"]
        assert result.findings[0].severity == Severity.ERROR
        assert len(result.schedules) == 1
        schedule = result.schedules[0]
        assert schedule["schema"] == "gyan.race/v1"
        assert schedule["flips"] == [{"tie": 0, "order": [1, 0]}]

    def test_tie_benign_reports_det502(self):
        result = checker.check_scenario(checker.get_scenario("tie-benign"))
        assert [f.rule_id for f in result.findings] == ["DET502"]
        assert result.findings[0].severity == Severity.WARNING
        assert result.schedules == []

    def test_commuting_ties_are_pruned(self):
        ran = []

        def scenario_run(clock):
            # Two unkeyed same-instant callbacks touching *no* shared
            # instrumented state: provably commute, no replay needed.
            clock.call_at(1.0, lambda now: ran.append("a"))
            clock.call_at(1.0, lambda now: ran.append("b"))
            clock.advance_to(2.0)
            return {"out.json": "{}\n"}

        scenario = checker.Scenario(
            name="_pruned", description="", run=scenario_run, default=False
        )
        result = checker.check_scenario(scenario)
        assert len(result.ties) == 1
        assert result.ties_pruned == 1
        assert result.replays == 0
        assert result.findings == []

    def test_default_scenarios_are_clean(self):
        for name in checker.default_scenarios():
            result = checker.check_scenario(checker.get_scenario(name))
            assert result.findings == [], (
                f"shipped scenario {name} has determinism findings"
            )

    def test_seeded_bad_scenarios_not_in_defaults(self):
        defaults = set(checker.default_scenarios())
        assert "tie-demo" not in defaults
        assert "tie-benign" not in defaults
        assert {"trace-workload", "chaos"} <= defaults


class TestDriver:
    def test_dynamic_run_reports_tie_demo(self):
        report = run_race(RaceOptions(
            run_static=False, scenarios=["tie-demo"],
        ))
        assert [f.rule_id for f in report.findings] == ["DET501"]
        assert report.exit_code(Severity.ERROR) == 1
        assert report.ties_observed == 1

    def test_unknown_scenario_is_usage_error(self):
        report = run_race(RaceOptions(
            run_static=False, scenarios=["no-such-scenario"],
        ))
        assert report.errors
        assert report.exit_code(Severity.ERROR) == 2

    def test_json_output_is_byte_deterministic(self):
        options = RaceOptions(run_static=False, scenarios=["tie-demo"])
        first = run_race(options).render_json()
        second = run_race(options).render_json()
        assert first == second
        payload = json.loads(first)
        assert payload["schema"] == "gyan.race-report/v1"
        assert payload["schedules"]

    def test_schedule_replay_reproduces_divergence(self, tmp_path):
        report = run_race(RaceOptions(
            run_static=False, scenarios=["tie-demo"],
        ))
        path = tmp_path / "sched.json"
        path.write_text(json.dumps(report.schedules[0]))
        replay = run_schedule_replay(path)
        assert [f.rule_id for f in replay.findings] == ["DET501"]
        assert replay.exit_code(Severity.ERROR) == 1

    def test_schedule_replay_clean_on_identity(self, tmp_path):
        path = tmp_path / "sched.json"
        path.write_text(
            json.dumps(Schedule(scenario="tie-demo", flips={}).to_dict())
        )
        replay = run_schedule_replay(path)
        assert replay.findings == []
        assert replay.exit_code(Severity.ERROR) == 0

    def test_static_pass_on_fixtures_finds_all_rules(self):
        from pathlib import Path

        fixtures = Path(__file__).parent / "fixtures" / "race_bad"
        report = run_race(RaceOptions(
            paths=[str(fixtures)], run_dynamic=False,
        ))
        assert {f.rule_id for f in report.findings} == {
            "DET401", "DET402", "DET403", "DET404",
        }
        assert report.files_checked == 4
