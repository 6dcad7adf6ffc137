"""Command-line interface."""

import ast
import json
from pathlib import Path

import pytest

from repro.cli import main


class TestInfoAndSmi:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Tesla K80" in out
        assert "racon" in out and "bonito" in out
        assert "455.45.01" in out

    def test_smi(self, capsys):
        assert main(["smi"]) == 0
        out = capsys.readouterr().out
        assert "NVIDIA-SMI" in out
        assert "No running processes found" in out

    def test_smi_demo_shows_process(self, capsys):
        assert main(["smi", "--demo"]) == 0
        assert "racon_gpu" in capsys.readouterr().out


class TestToolCommands:
    def test_racon_unit(self, capsys):
        assert main(["racon", "--threads", "4", "--batches", "16", "--banded"]) == 0
        out = capsys.readouterr().out
        assert "racon_gpu -t 4 --cudapoa-batches 16 -b" in out
        assert "local_gpu" in out
        assert "1.670" in out

    def test_racon_dataset(self, capsys):
        assert main(["racon", "--workload", "dataset", "--dataset",
                     "Alzheimers_NFL"]) == 0
        out = capsys.readouterr().out
        assert "gpu_kernels" in out

    def test_racon_container(self, capsys):
        assert main(["racon", "--container"]) == 0
        assert "docker_gpu" in capsys.readouterr().out

    def test_bonito_dataset(self, capsys):
        assert main(["bonito"]) == 0
        out = capsys.readouterr().out
        assert "bonito basecaller" in out
        assert "h (virtual)" in out

    def test_unknown_dataset_fails(self, capsys):
        assert main(["racon", "--workload", "dataset", "--dataset", "nope"]) == 1


class TestCasesAndExperiments:
    def test_cases_all(self, capsys):
        assert main(["cases"]) == 0
        out = capsys.readouterr().out
        for case in ("Case 1", "Case 2", "Case 3", "Case 4"):
            assert case in out
        assert out.count("NVIDIA-SMI") == 4

    def test_cases_leaves_sys_path_alone(self, capsys):
        import sys

        before = list(sys.path)
        assert main(["cases"]) == 0
        assert main(["cases"]) == 0
        capsys.readouterr()
        assert sys.path == before

    def test_single_case(self, capsys):
        assert main(["cases", "--case", "3"]) == 0
        out = capsys.readouterr().out
        assert "Case 3" in out and "Case 1" not in out

    @pytest.mark.parametrize("name,needle", [
        ("fig3", "3.22"),
        ("fig5", "Acinetobacter_pittii"),
        ("e11", "speedup: 2.0"),
        ("stalls", "memory_dependency"),
    ])
    def test_experiments(self, capsys, name, needle):
        assert main(["experiment", name]) == 0
        assert needle in capsys.readouterr().out

    def test_bad_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])

    def test_no_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestTraceCommand:
    def test_trace_replay(self, capsys):
        from repro.cli import main

        assert main(["trace", "--jobs", "10", "--interarrival", "1.0",
                     "--allocation", "memory"]) == 0
        out = capsys.readouterr().out
        assert "mean completion time" in out
        assert "scattered jobs:       0" in out

    def test_trace_wait_policy(self, capsys):
        from repro.cli import main

        assert main(["trace", "--jobs", "10", "--interarrival", "0.5",
                     "--policy", "wait"]) == 0
        out = capsys.readouterr().out
        assert "peak sharing per GPU: {'0': 1, '1': 1}" in out


    @pytest.mark.parametrize("extra", [[], ["--format", "json"]])
    def test_trace_that_outruns_the_node_is_one_stderr_line(self, capsys, extra):
        """200 jobs at the default 2 s inter-arrival exhaust the 48 CPU
        slots: exit 1 and a pointer at --interarrival, not a traceback."""
        assert main(["trace", "--jobs", "200", *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("trace: gyan-node-0: requested 1 CPU slots")
        assert "--interarrival (now 2 s)" in captured.err


class TestCountsOutOfRange:
    """A job count, rate or fraction the verb cannot run is one
    ``<verb>: …`` line on stderr and exit 2, not a traceback or a run
    reporting ``0/-1``."""

    @pytest.mark.parametrize("argv, line", [
        (["trace", "--jobs", "0"], "trace: n_jobs must be positive"),
        (["trace", "--jobs", "-3", "--format", "json"],
         "trace: n_jobs must be positive"),
        (["trace", "--interarrival", "0"],
         "trace: mean_interarrival_s must be positive"),
        (["trace", "--interarrival", "-1", "--format", "json"],
         "trace: mean_interarrival_s must be positive"),
        (["storm", "--max-shed-fraction", "nan"],
         "storm: --max-shed-fraction must be a fraction in [0, 1], got nan"),
        (["storm", "--max-shed-fraction", "-1", "--format", "json"],
         "storm: --max-shed-fraction must be a fraction in [0, 1], got -1"),
        (["faults", "--jobs", "-1"],
         "faults: --jobs must be 0 or more, got -1"),
        (["topo", "--boards", "0"], "topo: --boards must be 1 or more, got 0"),
        (["topo", "--boards", "-1"],
         "topo: --boards must be 1 or more, got -1"),
        (["trace", "--interarrival", "nan"],
         "trace: mean_interarrival_s must be finite, got nan"),
        (["trace", "--interarrival", "inf", "--format", "json"],
         "trace: mean_interarrival_s must be finite, got inf"),
        (["storm", "--burst-factor", "nan"],
         "storm: burst_factor must be finite and >= 1 (a burst is faster), "
         "got nan"),
        (["storm", "--burst-factor", "inf", "--format", "json"],
         "storm: burst_factor must be finite and >= 1 (a burst is faster), "
         "got inf"),
        (["race", "--permutations", "0"],
         "race: --permutations must be 1 or more, got 0"),
        (["race", "--dynamic-only", "--permutations", "-1"],
         "race: --permutations must be 1 or more, got -1"),
        (["storm", "--max-shed-fraction", "1.5"],
         "storm: --max-shed-fraction must be a fraction in [0, 1], got 1.5"),
        (["trace", "--jobs", "2", "--interarrival", "1e17"],
         "trace: cannot move clock to t=6.799319039689096e+16: "
         "instants stop below 2**53 s"),
    ])
    def test_is_a_usage_error(self, capsys, argv, line):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == line + "\n"

    def test_faults_with_zero_jobs_is_the_empty_run(self, capsys):
        assert main(["faults", "--jobs", "0"]) == 0
        assert "survived:            0/0" in capsys.readouterr().out


class TestMalformedInputFiles:
    """A wrapper whose command block does not compile is a finding with
    the file path (exit 1); a plan whose embedded workload no run can
    honour is one ``faults: …`` line (exit 2).  Neither is a traceback,
    and neither is a clean report followed by a job that raises."""

    FIXTURES = Path(__file__).parent / "analysis" / "fixtures"
    UNTERMINATED = (
        "command template: expected one of ('end if',), hit end of template"
    )
    BAD_EXPRESSION = (
        "command template: failed to evaluate '$__galaxy_gpu_enabled__ ==': invalid syntax"
    )

    @pytest.mark.parametrize("verb, fixture, finding", [
        ("lint", "unterminated_if.xml", "error: GYAN100: " + UNTERMINATED),
        ("verify", "unterminated_if.xml",
         "error: VER200: tool wrapper does not load: " + UNTERMINATED),
        ("lint", "bad/bad_expression.xml", "error: GYAN100: " + BAD_EXPRESSION),
        ("verify", "bad/bad_expression.xml",
         "error: VER200: tool wrapper does not load: " + BAD_EXPRESSION),
    ])
    def test_uncompilable_command_is_a_finding(self, capsys, verb, fixture, finding):
        path = str(self.FIXTURES / fixture)
        assert main([verb, path]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "Traceback" not in captured.out
        report = captured.out.splitlines()
        assert report[0].startswith(f"{path}: {finding}")
        assert report[1].endswith("1 finding(s) (1 error)")

    @pytest.mark.parametrize("workload, line", [
        ({"jobs": -1}, "faults: workload jobs must be 0 or more, got -1"),
        ({"jobs": 3, "tools": []},
         "faults: workload tools must be a non-empty list of tool ids, got []"),
        ({"tools": ["racon", 7]},
         "faults: workload tools must be a non-empty list of tool ids, "
         "got ['racon', 7]"),
        ({"tools": "racon"},
         "faults: workload tools must be a non-empty list of tool ids, "
         "got 'racon'"),
        ({"max_resubmit_hops": -2},
         "faults: workload max_resubmit_hops must be 0 or more, got -2"),
    ])
    def test_plan_with_an_impossible_workload_is_a_usage_error(
        self, capsys, tmp_path, workload, line
    ):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(
            {"name": "p", "seed": 1, "events": [], "workload": workload}
        ))
        assert main(["faults", "--plan", str(plan)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == line + "\n"

    def test_plan_expect_stays_free_text(self, capsys, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({
            "name": "p", "seed": 1, "events": [],
            "workload": {"jobs": 0, "tools": ["racon"], "max_resubmit_hops": 0,
                         "expect": "whatever the author wrote"},
        }))
        assert main(["faults", "--plan", str(plan)]) == 0
        out = capsys.readouterr().out
        assert "expect: whatever the author wrote" in out
        assert "survived:            0/0" in out


class TestHostileAnalyzerInputs:
    """``lint``, ``verify``, ``perf`` and ``race --static-only`` share one
    loader, so a hostile input ends the same way under each: a file that
    cannot be decoded is one ``<verb>: cannot read …`` line and exit 2, a
    ``.py`` file that does not parse is SRC200 under ``lint`` and is
    counted and skipped elsewhere, and a directory named like an input is
    not one.  No cell prints a traceback."""

    FIXTURES = Path(__file__).parent / "analysis" / "fixtures"
    LATIN1 = "# caf\xe9\n".encode("latin-1")
    #: verb -> (argv, suffixes it reads, (status, line) when the path
    #: holds nothing it reads)
    VERBS = {
        "lint": (["lint"], (".py", ".xml"),
                 (0, "0 file(s) checked, 0 finding(s)")),
        "verify": (["verify", "--no-model-check"], (".xml", ".json"),
                   (2, "verify: no job_conf found under the given paths; "
                       "nothing to verify")),
        "perf": (["perf"], (".py",), (0, "0 file(s), 0 function(s), ")),
        "race": (["race", "--static-only"], (".py",),
                 (0, "0 file(s) checked, 0 scenario(s) permuted ")),
    }
    #: file name -> (content, the text after ``SRC200: Python file does
    #: not parse: ``, with the ``:line`` lint anchors it to)
    UNPARSEABLE = {
        "nul.py": ("x = 1\0\n", "",
                   "source code string cannot contain null bytes"),
        "unbalanced.py": ("def f(:\n", ":1", "invalid syntax"),
        "parens.py": ("(" * 300 + ")" * 300 + "\n", ":1",
                      "too many nested parentheses"),
        # RecursionError, whose wording is CPython's to change.
        "sum.py": ("x = " + "+".join(["1"] * 3000) + "\n", "", ""),
    }
    HOT_AND_RANDOM = (
        "import random\n"
        "from repro.hotpath import hot_path\n"
        "@hot_path\n"
        "def render(samples):\n"
        "    out = ''\n"
        "    for s in samples:\n"
        "        out += f'{s}!'\n"
        "    return out + str(random.random())\n"
    )

    def _run(self, capsys, verb, path):
        status = main([*self.VERBS[verb][0], str(path)])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        return status, captured.out.splitlines(), captured.err.splitlines()

    @pytest.mark.parametrize("suffix", [".py", ".xml", ".json"])
    @pytest.mark.parametrize("verb", list(VERBS))
    def test_file_that_is_not_utf8(self, capsys, tmp_path, verb, suffix):
        path = tmp_path / f"latin1{suffix}"
        path.write_bytes(self.LATIN1)
        status, out, err = self._run(capsys, verb, path)
        _argv, reads, (idle_status, idle_line) = self.VERBS[verb]
        if suffix in reads:
            assert status == 2
            (line,) = err
            assert line.startswith(f"{verb}: cannot read {path}: 'utf-8' codec")
        else:
            assert status == idle_status
            assert (err + out)[0].startswith(idle_line)

    @pytest.mark.parametrize("name", list(UNPARSEABLE))
    @pytest.mark.parametrize("verb", list(VERBS))
    def test_python_file_that_does_not_parse(self, capsys, tmp_path, verb, name):
        text, line, message = self.UNPARSEABLE[name]
        try:
            ast.parse(text)
        except (SyntaxError, ValueError, RecursionError):
            pass
        else:  # how deep a tree may be is the interpreter's to say
            pytest.skip("this interpreter parses it")
        path = tmp_path / name
        path.write_text(text)
        status, out, err = self._run(capsys, verb, path)
        if verb == "lint":
            assert (status, err) == (1, [])
            assert out[0].startswith(
                f"{path}{line}: error: SRC200: Python file does not parse: "
                f"{message}"
            )
            assert out[0].endswith(message)
            assert out[1] == "1 file(s) checked, 1 finding(s) (1 error)"
        elif verb == "verify":
            idle_status, idle_line = self.VERBS[verb][2]
            assert (status, err) == (idle_status, [idle_line])
        else:
            # Counted, skipped: SRC200 is lint's to report.
            assert (status, err) == (0, [])
            assert out[0].startswith("1 file(s)") and "0 finding(s)" in out[0]

    @pytest.mark.parametrize("verb", ["lint", "perf", "race"])
    def test_tree_deeper_than_the_recursion_limit_is_walked(
        self, capsys, tmp_path, verb
    ):
        """1500 terms parse (3000 do not) into a tree 1500 levels deep:
        the rule families walk it off a stack, not by recursion."""
        path = tmp_path / "deep.py"
        path.write_text("x = " + "+".join(["1"] * 1500) + "\n")
        try:
            ast.parse(path.read_text())
        except RecursionError:
            pytest.skip("this interpreter's parser stops short of 1500 terms")
        status, out, err = self._run(capsys, verb, path)
        assert (status, err) == (0, [])
        assert out[0].startswith("1 file(s)") and "0 finding(s)" in out[0]

    @pytest.mark.parametrize("verb, summary", [
        ("lint", "2 file(s) checked, 0 finding(s)"),
        ("verify", "1 deployment(s) checked, 0 finding(s)"),
        ("perf", "1 file(s), 0 function(s), 0 hot via 0 seed(s); 0 finding(s)"),
        ("race", "1 file(s) checked, 0 scenario(s) permuted (0 tie(s), 0 "
                 "pruned commutative, 0 replay(s)), 0 finding(s)"),
    ])
    def test_directory_named_like_an_input_is_not_one(
        self, capsys, tmp_path, verb, summary
    ):
        for name in ("x.py", "x.xml", "x.json"):
            (tmp_path / name).mkdir()
        (tmp_path / "good.py").write_text("x = 1\n")
        clean = self.FIXTURES / "deployments" / "clean" / "job_conf.xml"
        (tmp_path / "job_conf.xml").write_text(clean.read_text())
        assert self._run(capsys, verb, tmp_path) == (0, [summary], [])

    @pytest.mark.parametrize("verb, finding", [
        ("lint", "error: PERF601: "), ("verify", "error: VER201: "),
        ("perf", "error: PERF601: "), ("race", "error: DET402: "),
    ])
    def test_unreadable_file_does_not_hide_the_next_one(
        self, capsys, tmp_path, verb, finding
    ):
        for suffix in (".py", ".xml", ".json"):
            (tmp_path / f"a_latin1{suffix}").write_bytes(self.LATIN1)
        (tmp_path / "b_hot.py").write_text(self.HOT_AND_RANDOM)
        for name in ("job_conf_second.xml", "charon.xml"):
            source = self.FIXTURES / "two_confs" / name
            (tmp_path / name).write_text(source.read_text())
        status, out, err = self._run(capsys, verb, tmp_path)
        assert status == 2
        assert err == [
            line for line in err if line.startswith(f"{verb}: cannot read ")
        ]
        assert len(err) == len(self.VERBS[verb][1])
        assert any(finding in line for line in out)


class TestMonitorDump:
    def test_dump_writes_files(self, tmp_path):
        from repro import build_deployment, register_paper_tools

        deployment = build_deployment()
        register_paper_tools(deployment.app)
        job = deployment.run_tool("racon", {"workload": "unit"})
        paths = deployment.monitor.dump(job.job_id, tmp_path)
        assert len(paths) == 2
        csv_text = (tmp_path / f"job_{job.job_id}.csv").read_text()
        assert csv_text.startswith("time,device")
        stats_text = (tmp_path / f"job_{job.job_id}_stats.txt").read_text()
        assert "GPU 0" in stats_text


class TestTopoCommand:
    def test_topology_matrix(self, capsys):
        from repro.cli import main

        assert main(["topo", "--boards", "2"]) == 0
        out = capsys.readouterr().out
        assert "PIX" in out and "PHB" in out and "GPU3" in out


class TestFleet:
    ARGV = ["fleet", "--jobs", "3000", "--nodes", "6", "--gpus-per-node", "2",
            "--queue-limit", "4", "--storm"]

    def test_check_parity_generates_the_day_once(
        self, generated_days, capsys
    ):
        assert main([*self.ARGV, "--ab", "--check-parity"]) == 0
        assert "bit-identical" in capsys.readouterr().out
        # three policies, two models, one day
        assert len(generated_days) == 1

    @pytest.mark.parametrize("flags, message", [
        (["--jobs", "-3"], "fleet: jobs must be non-negative, got -3\n"),
        (["--queue-limit", "-5"],
         "fleet: queue_limit must be non-negative, got -5\n"),
        (["--nodes", str(2**31)],
         f"fleet: fleet needs between 1 and {2**31 - 1} nodes, "
         f"got {2**31}\n"),
    ])
    def test_out_of_range_shape_is_a_usage_error(self, flags, message, capsys):
        assert main(["fleet", "--nodes", "4", *flags]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", message)

    @pytest.mark.parametrize("flag, message", [
        ("--eval-interval",
         "fleet: eval_interval_s must be positive and finite, got nan\n"),
        ("--provision-lag",
         "fleet: provision_lag_s must be non-negative and finite, got nan\n"),
        ("--cooldown",
         "fleet: cooldown_s must be non-negative and finite, got nan\n"),
    ])
    def test_non_finite_autoscaler_instant_is_a_usage_error(
        self, flag, message, capsys
    ):
        assert main(["fleet", "--nodes", "4", "--jobs", "2000", "--autoscale",
                     "--min-nodes", "2", flag, "nan"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", message)

    def test_zero_jobs_is_a_defined_empty_day(self, capsys):
        assert main(["fleet", "--nodes", "4", "--jobs", "0",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["jobs_submitted"] == 0
        assert payload["states"] == {} and payload["end_time"] == 0.0


class TestOneSubParserPerCall:
    """``main`` builds only the invoked command's sub-parser; what a user
    can see (parsed values, help, errors, exit codes) does not change."""

    #: One argv per command, off the defaults where the command has flags.
    SAMPLES = {
        "info": ["info"],
        "smi": ["smi", "--demo"],
        "topo": ["topo", "--boards", "3"],
        "racon": ["racon", "--threads", "8", "--banded", "--workload",
                  "dataset", "--container", "--allocation", "memory"],
        "bonito": ["bonito", "--workload", "unit", "--dataset", "x"],
        "cases": ["cases", "--case", "3"],
        "experiment": ["experiment", "fig5"],
        "trace": ["trace", "--jobs", "7", "--policy", "wait", "--plan", "p.json",
                  "--emit", "out", "--format", "json"],
        "lint": ["lint", "a.xml", "b.py", "--fail-on", "warning", "--devices",
                 "4", "--baseline", "base.json"],
        "perf": ["perf", "src", "--fail-on", "info", "--baseline", "b.json",
                 "--format", "json"],
        "faults": ["faults", "--scenario", "nvml-flaky", "--jobs", "3",
                   "--no-resilience"],
        "storm": ["storm", "--jobs", "9", "--burst-factor", "2.5", "--no-faults"],
        "verify": ["verify", "examples", "--scope", "1,2,3", "--no-model-check",
                   "--emit-plans", "plans"],
        "fleet": ["fleet", "--nodes", "12", "--policy", "pack", "--ab",
                  "--autoscale", "--max-nodes", "20", "--cooldown", "60"],
        "race": ["race", "src", "--scenario", "trace", "--schedule", "s.json",
                 "--static-only", "--fail-on", "info"],
    }

    @staticmethod
    def commands():
        """The command names, read back from a full parser (built here: a
        test that counts ``add_parser`` calls snapshots its count first)."""
        import argparse

        from repro.cli import build_parser

        (sub,) = [action for action in build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
        return list(sub.choices)

    @pytest.fixture
    def add_parser_calls(self, monkeypatch):
        import argparse

        calls = []
        add_parser = argparse._SubParsersAction.add_parser

        def counted(action, name, **kwargs):
            calls.append(name)
            return add_parser(action, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
        return calls

    def test_every_command_has_a_sample(self):
        assert sorted(self.SAMPLES) == sorted(self.commands())

    @pytest.mark.parametrize("command", sorted(SAMPLES))
    def test_single_parser_parses_like_the_full_one(self, command):
        from repro.cli import build_parser

        argv = self.SAMPLES[command]
        alone = build_parser(command).parse_args(argv)
        assert alone == build_parser().parse_args(argv)
        assert alone.command == command and callable(alone.func)

    @pytest.mark.parametrize("command", sorted(SAMPLES))
    def test_single_parser_errors_like_the_full_one(self, command, capsys):
        """An unknown flag is reported by the top-level parser, whose usage
        line lists every command either way."""
        from repro.cli import build_parser

        texts = []
        for parser in (build_parser(command), build_parser()):
            with pytest.raises(SystemExit) as exit_info:
                parser.parse_args([*self.SAMPLES[command], "--no-such-flag"])
            assert exit_info.value.code == 2
            texts.append(capsys.readouterr().err)
        assert texts[0] == texts[1]
        assert "{" + ",".join(self.commands()) + "}" in "".join(texts[0].split())

    def test_validation_of_the_invoked_command_is_intact(self, capsys):
        for argv in (["racon", "--workload", "nope"], ["racon", "--threads", "x"],
                     ["cases", "--case", "9"], ["experiment"]):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2
            assert f"repro {argv[0]}: error:" in capsys.readouterr().err

    def test_main_registers_one_sub_parser_for_a_command(self, add_parser_calls,
                                                         capsys):
        assert main(["info"]) == 0
        assert add_parser_calls == ["info"]
        del add_parser_calls[:]
        with pytest.raises(SystemExit) as exit_info:
            main(["fleet", "--help"])
        assert exit_info.value.code == 0
        assert add_parser_calls == ["fleet"]
        assert capsys.readouterr().out.count("usage: repro fleet") == 1

    def test_help_lists_every_command(self, add_parser_calls, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        assert list(add_parser_calls) == self.commands()
        out = capsys.readouterr().out
        for command in self.commands():
            assert f"\n    {command} " in out

    @pytest.mark.parametrize("argv,message", [
        (["nosuch"], "argument command: invalid choice: 'nosuch' (choose from "
                     "'info', 'smi', 'topo', 'racon', 'bonito', 'cases', "
                     "'experiment', 'trace', 'lint', 'perf', 'faults', 'storm', "
                     "'verify', 'fleet', 'race')"),
        ([], "the following arguments are required: command"),
    ])
    def test_unknown_and_missing_command_exit_2(self, argv, message,
                                                add_parser_calls, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert list(add_parser_calls) == self.commands()
        err = capsys.readouterr().err
        assert err.startswith("usage: repro [-h]")
        assert err.endswith(f"repro: error: {message}\n")


@pytest.mark.perf_guard
class TestToolsInstalledPerCommand:
    """A paper command parses the wrappers of the tools it runs and no
    other: counted where the installers look ``parse_tool_xml`` up.
    Installing the whole toolbox in every deployment parses three
    wrappers per deployment, twelve for ``cases``."""

    @pytest.fixture
    def parsed(self, monkeypatch):
        import repro.galaxy.tool_xml as tool_xml

        tool_ids = []
        parse = tool_xml.parse_tool_xml

        def counted(*args, **kwargs):
            tool = parse(*args, **kwargs)
            tool_ids.append(tool.tool_id)
            return tool

        monkeypatch.setattr(tool_xml, "parse_tool_xml", counted)
        return tool_ids

    ROWS = [
        (["racon"], ["racon"]),
        (["racon", "--workload", "dataset", "--container"], ["racon"]),
        (["bonito"], ["bonito"]),
        # Cases 1 and 4 run both tools, case 2 Bonito, case 3 Racon.
        (["cases"], ["racon", "bonito", "bonito", "racon", "racon", "bonito"]),
        (["cases", "--case", "2"], ["bonito"]),
        (["smi"], []),
        (["smi", "--demo"], ["racon"]),
        (["experiment", "stalls"], ["racon"]),
        (["info"], ["racon", "bonito", "seqstats"]),
    ]

    @pytest.mark.parametrize("argv, tool_ids", ROWS,
                             ids=[" ".join(argv) for argv, _ in ROWS])
    def test_parses_per_call(self, argv, tool_ids, parsed, capsys):
        assert main(argv) == 0
        assert parsed == tool_ids

    def test_info_lists_every_tool(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        listed = out.split("installed tools:\n")[1].split("destinations:")[0]
        assert [line.split()[0] for line in listed.splitlines()] == [
            "bonito", "racon", "seqstats"
        ]


class TestSanitizerGate:
    """``main`` installs simsan when GYAN_SIMSAN asks, and otherwise does
    not import the analysis package on behalf of a non-analyzer verb."""

    PROBE = (
        "import sys; from repro.cli import main; main(['topo']); "
        "from_analysis = [m for m in sys.modules if m.startswith('repro.analysis')]; "
        "import repro.analysis.sanitizer as s; "
        "print(bool(from_analysis), s.is_installed())"
    )

    @pytest.mark.parametrize("value, expected", [
        (None, "False False"), ("", "False False"),
        ("0", "True False"), ("1", "True True"),
    ])
    def test_env_decides(self, value, expected):
        import os
        import subprocess
        import sys

        env = {k: v for k, v in os.environ.items() if k != "GYAN_SIMSAN"}
        if value is not None:
            env["GYAN_SIMSAN"] = value
        done = subprocess.run(
            [sys.executable, "-c", self.PROBE], env=env,
            capture_output=True, text=True, check=True,
        )
        assert done.stdout.splitlines()[-1] == expected
