"""gyan-verify: deployment IR, static passes, model checker, CLI."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.findings import Severity
from repro.analysis.linter import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE
from repro.analysis.verifier.driver import VerifyOptions, verify_paths
from repro.analysis.verifier.ir import load_deployments
from repro.analysis.verifier.model_check import Scope
from repro.cli import main
from repro.gpusim.faults import InjectionPlan
from repro.workloads.chaos import run_chaos

FIXTURES = Path(__file__).parent / "fixtures" / "deployments"
REPO_ROOT = Path(__file__).resolve().parents[2]


def _verify(path, **kwargs):
    kwargs.setdefault("model_check", False)
    return verify_paths([str(path)], VerifyOptions(**kwargs))


def _rule_ids(report):
    return {f.rule_id for f in report.findings}


class TestDeploymentIR:
    def test_examples_load_as_three_deployments(self):
        deployments, findings, errors = load_deployments(
            [str(REPO_ROOT / "examples" / "configs")]
        )
        assert errors == [] and findings == []
        assert [Path(d.job_conf_path).name for d in deployments] == [
            "job_conf.xml", "job_conf_overload.xml",
            "job_conf_resilient.xml",
        ]
        first = deployments[0]
        assert "local_gpu" in first.destinations
        assert first.destinations["local_gpu"].span.line is not None
        # Same-directory tools and chaos plans attach to every
        # deployment rooted there, not to the first in path order alone.
        for ir in deployments:
            assert [t.tool_id for t in ir.tools] == ["bonito", "racon"]
            assert len(ir.plans) == 2
            # The shipped autoscale plan attaches alongside the chaos plans.
            assert [a.name for a in ir.autoscalers] == ["fleet-diurnal-day"]

    def test_initial_destinations_expand_dynamic_rules(self):
        deployments, _, _ = load_deployments(
            [str(REPO_ROOT / "examples" / "configs" / "job_conf.xml")]
        )
        (ir,) = deployments
        assert ir.initial_destinations("racon") == ["local_cpu", "local_gpu"]

    def test_resubmit_chain_cut_at_repeat(self):
        deployments, _, _ = load_deployments([str(FIXTURES / "bad")])
        (ir,) = deployments
        chain = ir.resubmit_chain("docker_a")
        assert chain == ["docker_a", "docker_b", "docker_a"]

    def test_unparseable_files_are_ver200(self, tmp_path):
        (tmp_path / "job_conf.xml").write_text("<job_conf><destinations>")
        report = _verify(tmp_path)
        assert _rule_ids(report) == {"VER200"}
        assert report.exit_code(Severity.ERROR) == EXIT_FINDINGS

    @pytest.mark.parametrize("command, reason", [
        ("#if $gpu\nt1 input.fa", "command template: expected one of ('elif', "),
        ("#if $gpu ==\nt1 input.fa\n#end if",
         "command template: failed to evaluate '$gpu ==': "),
    ])
    def test_wrapper_whose_command_does_not_compile_is_ver200(
        self, tmp_path, command, reason
    ):
        """Verify-clean must mean the first job renders: loading a
        wrapper compiles every expression of its command block."""
        clean = FIXTURES / "clean"
        (tmp_path / "job_conf.xml").write_text((clean / "job_conf.xml").read_text())
        (tmp_path / "t1.xml").write_text(
            f'<tool id="t1" name="T" version="1"><command>{command}</command></tool>'
        )
        deployments, findings, errors = load_deployments([str(tmp_path)])
        assert errors == []
        (finding,) = findings
        assert finding.rule_id == "VER200"
        assert finding.path == str(tmp_path / "t1.xml")
        assert finding.message.startswith(f"tool wrapper does not load: {reason}")
        assert [t.tool_id for ir in deployments for t in ir.tools] == []

    def test_missing_path_is_usage_error(self):
        report = _verify("no/such/path")
        assert report.exit_code(Severity.ERROR) == EXIT_USAGE

    def test_no_job_conf_is_usage_error(self, tmp_path):
        (tmp_path / "readme.json").write_text("{}")
        report = _verify(tmp_path)
        assert report.exit_code(Severity.ERROR) == EXIT_USAGE

    def test_json_nested_too_deep_to_load_is_not_ours(self, tmp_path):
        """``json.loads`` raises RecursionError, not JSONDecodeError."""
        (tmp_path / "job_conf.xml").write_text(
            (FIXTURES / "clean" / "job_conf.xml").read_text()
        )
        (tmp_path / "deep.json").write_text("[" * 100_000)
        report = _verify(tmp_path)
        assert report.findings == [] and report.errors == []


class TestStaticPasses:
    def test_bad_fixture_trips_every_static_rule(self):
        report = _verify(FIXTURES / "bad")
        assert _rule_ids(report) >= {
            "VER201", "VER202", "VER203", "VER204", "VER205",
            "VER301", "VER302", "VER303",
        }
        assert report.exit_code(Severity.ERROR) == EXIT_FINDINGS

    def test_findings_carry_provenance(self):
        report = _verify(FIXTURES / "bad")
        by_rule = {f.rule_id: f for f in report.findings}
        assert by_rule["VER201"].path.endswith("styx.xml")
        assert by_rule["VER201"].line is not None
        assert by_rule["VER203"].line is not None
        assert by_rule["VER205"].path.endswith("plan_bad_device.json")

    def test_ver302_names_the_strategy(self):
        report = _verify(FIXTURES / "bad")
        messages = [
            f.message for f in report.findings if f.rule_id == "VER302"
        ]
        assert any("'pid'" in m for m in messages)

    def test_clean_fixture_is_clean(self):
        report = _verify(FIXTURES / "clean")
        assert report.findings == []
        assert report.exit_code(Severity.INFO) == EXIT_CLEAN

    def test_overload_bad_fixture_trips_every_ver5xx_rule(self):
        report = _verify(FIXTURES / "overload_bad")
        assert _rule_ids(report) >= {"VER501", "VER502", "VER503"}
        assert report.exit_code(Severity.ERROR) == EXIT_FINDINGS
        by_rule = {f.rule_id: f for f in report.findings}
        # Provenance points at the offending destination lines.
        assert by_rule["VER501"].line is not None
        assert by_rule["VER502"].line == by_rule["VER503"].line

    def test_ver501_silent_when_nothing_is_bounded(self):
        # The stock config never opted into bounding: not a finding.
        report = _verify(REPO_ROOT / "examples" / "configs" / "job_conf.xml")
        assert not any(r.startswith("VER5") for r in _rule_ids(report))

    def test_overload_example_passes_ver5xx(self):
        report = _verify(
            REPO_ROOT / "examples" / "configs" / "job_conf_overload.xml"
        )
        assert not any(r.startswith("VER5") for r in _rule_ids(report))

    def test_devices_flag_widens_plan_check(self):
        report = _verify(FIXTURES / "bad", device_count=8)
        assert "VER205" not in _rule_ids(report)


class TestAutoscalePass:
    def test_undersized_ceiling_is_ver504(self):
        report = _verify(FIXTURES / "autoscale_bad")
        by_rule = {f.rule_id: f for f in report.findings}
        assert "VER504" in by_rule
        assert by_rule["VER504"].path.endswith("autoscale_undersized.json")
        # The suggestion does the Little's-law sizing for the operator:
        # 3600 jobs/h x 120 s = 120 slots -> 30 nodes of 4 GPUs.
        assert "max_nodes to at least 30" in by_rule["VER504"].suggestion
        assert report.exit_code(Severity.ERROR) == EXIT_FINDINGS

    def test_laggy_provisioning_is_ver505(self):
        report = _verify(FIXTURES / "autoscale_bad")
        by_rule = {f.rule_id: f for f in report.findings}
        assert "VER505" in by_rule
        assert by_rule["VER505"].path.endswith("autoscale_laggy.json")
        assert by_rule["VER505"].severity == Severity.WARNING
        # The laggy plan is correctly *sized*: VER504 must not blame it.
        assert not by_rule["VER504"].path.endswith("autoscale_laggy.json")

    def test_shipped_autoscale_plan_is_clean(self):
        report = _verify(REPO_ROOT / "examples" / "configs")
        assert "VER504" not in _rule_ids(report)
        assert "VER505" not in _rule_ids(report)

    def test_unloadable_autoscale_plan_is_ver200(self, tmp_path):
        (tmp_path / "job_conf.xml").write_text(
            (FIXTURES / "clean" / "job_conf.xml").read_text()
        )
        (tmp_path / "autoscale.json").write_text(
            json.dumps({"schema": "gyan.autoscale/v1", "name": "broken"})
        )
        report = _verify(tmp_path)
        ver200 = [f for f in report.findings if f.rule_id == "VER200"]
        assert len(ver200) == 1
        assert "autoscale plan does not load" in ver200[0].message

    def test_plan_without_envelope_is_silent(self, tmp_path):
        (tmp_path / "job_conf.xml").write_text(
            (FIXTURES / "clean" / "job_conf.xml").read_text()
        )
        (tmp_path / "autoscale.json").write_text(json.dumps({
            "schema": "gyan.autoscale/v1",
            "name": "no-envelope",
            "pool": {"gpus_per_node": 2, "min_nodes": 1, "max_nodes": 2},
        }))
        report = _verify(tmp_path)
        assert report.findings == []


class TestModelChecker:
    def test_livelock_found_and_confirmed(self):
        report = _verify(FIXTURES / "bad", model_check=True)
        assert "VER401" in _rule_ids(report)
        (ce,) = [c for c in report.counterexamples if c.rule_id == "VER401"]
        # The chain revisits a destination: that is what livelock means.
        assert len(set(ce.chain_destinations)) < len(ce.chain_destinations)

    def test_job_loss_found_in_deadlock_fixture(self):
        report = _verify(FIXTURES / "deadlock", model_check=True)
        assert "VER402" in _rule_ids(report)
        (ce,) = report.counterexamples
        assert ce.plan.workload is not None
        assert ce.plan.workload.expect == "job_loss"

    def test_starvation_found_in_starvation_fixture(self):
        report = _verify(FIXTURES / "starvation", model_check=True)
        assert "VER403" in _rule_ids(report)
        (ce,) = report.counterexamples
        # Every hop is distinct and the final one still has an arm.
        assert len(set(ce.chain_destinations)) == len(ce.chain_destinations)

    def test_counterexample_replays_through_run_chaos(self):
        report = _verify(FIXTURES / "deadlock", model_check=True)
        (ce,) = report.counterexamples
        rehydrated = InjectionPlan.from_dict(ce.plan.to_dict())
        result = run_chaos(rehydrated)
        assert not result.all_ok

    def test_clean_fixture_passes_model_check(self):
        report = _verify(FIXTURES / "clean", model_check=True)
        assert report.findings == []
        assert report.replays > 1

    def test_scope_bounds_validated(self):
        with pytest.raises(ValueError):
            Scope(devices=3)
        with pytest.raises(ValueError):
            Scope(jobs=0)
        with pytest.raises(ValueError):
            Scope(faults=5)


class TestShippedConfigs:
    def test_examples_verify_clean(self):
        report = verify_paths(
            [str(REPO_ROOT / "examples")], VerifyOptions(model_check=True)
        )
        assert report.errors == []
        assert report.exit_code(Severity.ERROR) == EXIT_CLEAN
        # Nothing above INFO: the resilient pattern survives every
        # schedule in scope.
        assert all(f.severity == Severity.INFO for f in report.findings)


class TestRendering:
    def test_json_is_parseable_and_structured(self):
        report = _verify(FIXTURES / "bad")
        data = json.loads(report.render_json())
        assert data["deployments_checked"] == 1
        assert data["findings"]
        assert {f["rule_id"] for f in data["findings"]} >= {"VER201"}

    def test_output_is_byte_deterministic(self):
        first = _verify(FIXTURES / "deadlock", model_check=True)
        second = _verify(FIXTURES / "deadlock", model_check=True)
        assert first.render_json() == second.render_json()
        assert first.render_text() == second.render_text()


class TestVerifyCLI:
    def test_no_paths_is_usage_error(self, capsys):
        assert main(["verify"]) == EXIT_USAGE
        assert "no paths" in capsys.readouterr().err

    def test_bad_scope_is_usage_error(self, capsys):
        path = str(FIXTURES / "clean")
        assert main(["verify", path, "--scope", "nope"]) == EXIT_USAGE
        assert main(["verify", path, "--scope", "9,9,9"]) == EXIT_USAGE

    def test_clean_fixture_exits_clean(self, capsys):
        assert main(
            ["verify", str(FIXTURES / "clean"), "--no-model-check"]
        ) == EXIT_CLEAN
        assert "0 finding(s)" in capsys.readouterr().out

    def test_bad_fixture_exits_findings(self, capsys):
        assert main(
            ["verify", str(FIXTURES / "bad"), "--no-model-check"]
        ) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "VER201" in out and "VER301" in out

    def test_fail_on_warning_catches_starvation(self, capsys):
        assert main(
            ["verify", str(FIXTURES / "starvation"), "--fail-on", "warning"]
        ) == EXIT_FINDINGS
        assert "VER403" in capsys.readouterr().out

    def test_json_format(self, capsys):
        assert main(
            ["verify", str(FIXTURES / "bad"), "--no-model-check",
             "--format", "json"]
        ) == EXIT_FINDINGS
        data = json.loads(capsys.readouterr().out)
        assert data["deployments_checked"] == 1

    def test_emitted_plan_replays_via_faults_cli(self, tmp_path, capsys):
        assert main(
            ["verify", str(FIXTURES / "deadlock"),
             "--emit-plans", str(tmp_path)]
        ) == EXIT_FINDINGS
        capsys.readouterr()
        plans = sorted(tmp_path.glob("*.json"))
        assert len(plans) == 1
        # The emitted counterexample must reproduce the job loss through
        # the public chaos replayer: exit 1 means a job was lost.
        assert main(["faults", "--plan", str(plans[0])]) == 1
        out = capsys.readouterr().out
        assert "embedded workload" in out
        assert "expect: job_loss" in out
