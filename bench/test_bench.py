"""Checks on the benchmark itself, on its ``--quick`` sizes.

Not part of tier-1 (pytest ``testpaths`` is ``tests``); run with
``python -m pytest bench/test_bench.py -q``.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
OBJECT_WORKLOADS = ("paper-cli", "object-trace", "overload-storm")
FLEET_WORKLOADS = ("fleet-static-day", "fleet-elastic-day", "fleet-storm-surge")
#: The full run does all six; BENCHMARK.json gates the driver on four.
WORKLOADS = [*OBJECT_WORKLOADS, *FLEET_WORKLOADS]

#: Per-layer metrics that read zero on every workload at the commit that
#: defined the benchmark: nothing requeues, no breaker trips, no job
#: exhausts its resubmit hops, and the mapper's same-instant snapshot
#: cache never hits (every launch bumps the host's state version).
IDLE_AT_DEFINITION = {
    "core.mapper.snapshot_cache_hits", "core.mapper.cache_hit_ratio",
    "galaxy.runners.requeues", "resilience.overload.breaker_trips",
    "cluster.jobstore.fail_s", "cluster.jobstore.fail_n",
}
#: Nonzero at full size only: a tenth of the day never moves the elastic
#: pool, and a 300-job storm sheds nothing.
IDLE_AT_QUICK_SIZES = {
    "cluster.fleet.scale_ups", "cluster.fleet.scale_downs",
    "cluster.autoscale.meter_n", "resilience.overload.shed",
}


def run_py(*args: str, cwd: Path = ROOT, script: Path = BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, text=True,
        capture_output=True, timeout=300,
    )


def quick(tmp: Path, *args: str) -> dict:
    output = tmp / ("-".join(("results", *args)).replace("--", "") + ".json")
    done = run_py("--quick", "--output", str(output), *args)
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(output.read_text())


@pytest.fixture(scope="module")
def tmp(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("bench")


@pytest.fixture(scope="module")
def untraced(tmp) -> dict:
    return quick(tmp)


@pytest.fixture(scope="module")
def traced(tmp) -> dict:
    return quick(tmp, "--traced")


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert SPEC["paths"] == ["bench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * (SPEC["run_seconds"] + 8) < 3420, "no room for set-up time"
    names = []
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert workload["name"] in WORKLOADS
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_results_schema_and_correctness(untraced):
    assert untraced["schema"] == "gyan.benchmark/v1"
    for key in ("nproc", "python", "platform", "GYAN_SIMSAN"):
        assert key in untraced["environment"]
    assert list(untraced["workloads"]) == WORKLOADS
    declared = {m["name"]: m for m in SPEC["end_to_end"]}
    for name, run in untraced["workloads"].items():
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1, name
        assert not run["problems"], name
        assert set(run["metrics"]) == set(declared), name
        for metric, entry in run["metrics"].items():
            assert entry["unit"] == declared[metric]["unit"]
            assert entry["value"] > 0, (name, metric)
            assert entry["spread"]["n"] == len(entry["repeats"]) >= 1
        for one in run["passes"]:
            assert one["calib_ms"] > 0 and isinstance(one["noisy"], bool)
    for name in ("paper-cli", "object-trace"):
        info = untraced["workloads"][name]["info"]
        assert 0 < info["op_ms_p50"] <= info["op_ms_p95"] <= info["op_ms_p99"]


def test_traced_run_gives_every_per_layer_metric(traced):
    declared = [m["name"] for m in SPEC["per_layer"]]
    seen_nonzero = set()
    for name, run in traced["workloads"].items():
        assert run["correct"], (name, run["problems"])
        assert list(run["metrics"]) == declared, name
        seen_nonzero |= {m for m, e in run["metrics"].items() if e["value"]}
    assert set(declared) - seen_nonzero == IDLE_AT_DEFINITION | IDLE_AT_QUICK_SIZES


def test_layer_self_times_sum_to_the_root(traced):
    for name, run in traced["workloads"].items():
        root = run["metrics"]["bench.root_s"]["value"]
        total = sum(row["self_s"] for row in run["layers"].values())
        assert root > 0 and abs(total - root) <= 0.01 * root, name
        trace = json.loads((ROOT / run["trace_file"]).read_text())
        assert trace["span_fields"] == ["key", "start_s", "end_s", "parent", "op"]
        roots = [s for s in trace["spans"] if s[3] < 0]
        assert roots and all(s[0] == "bench.driver" for s in roots)
        for key, start, end, parent, _op in trace["spans"]:
            assert end >= start and parent < len(trace["spans"])
            if parent >= 0:
                outer = trace["spans"][parent]
                assert outer[1] <= start and end <= outer[2], key


def test_layers_separate_by_workload(traced):
    def seconds(run, prefixes):
        return sum(
            entry["value"] for metric, entry in run["metrics"].items()
            if metric.startswith(prefixes) and metric.endswith("_s")
        )

    for name in OBJECT_WORKLOADS:
        run = traced["workloads"][name]
        assert seconds(run, ("cluster.",)) == 0, name
        assert seconds(run, ("galaxy.", "core.mapper.")) > 0, name
    for name in FLEET_WORKLOADS:
        run = traced["workloads"][name]
        assert seconds(run, ("galaxy.", "core.", "gpusim.", "tools.")) == 0, name
        assert seconds(run, ("cluster.jobstore.",)) > 0, name
    value = lambda name, metric: traced["workloads"][name]["metrics"][metric]["value"]
    # Each layer likely to be optimised works in one workload, idles in another.
    assert value("paper-cli", "galaxy.tool_xml.parse_n") > 0
    assert value("object-trace", "galaxy.tool_xml.parse_n") == 0
    assert value("object-trace", "core.orchestrator.build_n") == 0
    assert value("overload-storm", "resilience.overload.redirects") > 0
    assert value("fleet-elastic-day", "cluster.autoscale.evaluate_n") > 0
    assert value("fleet-static-day", "cluster.autoscale.evaluate_n") == 0
    assert value("fleet-static-day", "cluster.jobstore.wait_pct_s") > 0
    assert value("fleet-storm-surge", "cluster.jobstore.wait_pct_s") == 0
    assert value("fleet-storm-surge", "cluster.jobstore.shed_n") > 0
    assert value("fleet-static-day", "cluster.jobstore.shed_n") == 0


def test_digests_repeat_across_processes_and_depend_on_the_seed(tmp, untraced, traced):
    other = quick(tmp, "--seed", "43")
    for name in WORKLOADS:
        digest = untraced["workloads"][name]["sim_digest"]
        assert re.fullmatch(r"[0-9a-f]{64}", digest)
        assert traced["workloads"][name]["sim_digest"] == digest, name
        assert other["workloads"][name]["correct"], name
        assert other["workloads"][name]["sim_digest"] != digest, name
    err = "paper_err_pct"
    assert traced["workloads"]["paper-cli"]["metrics"][err]["value"] < 0.3


def test_compare_verdicts(tmp, untraced):
    def compare(old: dict, new: dict):
        paths = []
        for label, data in (("old", old), ("new", new)):
            paths.append(tmp / f"compare-{label}.json")
            paths[-1].write_text(json.dumps(data))
        return run_py(*map(str, paths), script=BENCH / "compare.py")

    same = compare(untraced, untraced)
    assert same.returncode == 0 and "regressed" not in same.stdout
    assert "improved" not in same.stdout

    slower = copy.deepcopy(untraced)
    metric = slower["workloads"]["object-trace"]["metrics"]["ops_per_s"]
    metric["value"] /= 2
    metric["repeats"] = [v / 2 for v in metric["repeats"]]
    done = compare(untraced, slower)
    assert done.returncode == 1
    assert re.search(r"object-trace\s+ops_per_s\s+regressed", done.stdout)
    back = compare(slower, untraced)
    assert back.returncode == 0
    assert re.search(r"object-trace\s+ops_per_s\s+improved", back.stdout)

    wrong = copy.deepcopy(untraced)
    wrong["workloads"]["paper-cli"]["failed"] = 1
    done = compare(untraced, wrong)
    assert done.returncode == 1 and "failed share rose" in done.stdout


def test_single_workload_mode_ends_with_the_result_line():
    done = run_py("--workload", "overload-storm", "--seed", "7",
                  "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for entry in result["metrics"].values():
        assert set(entry) == {"value", "unit"} and entry["value"] > 0


def test_fails_without_a_result_where_the_program_is_absent(tmp):
    bare = tmp / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_py("--workload", "paper-cli", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=bare, script=bare / "bench" / "run.py")
    assert done.returncode != 0 and done.stdout == ""
