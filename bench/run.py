"""The repo benchmark: six workloads from the CLI to the bytes on disk.

Two ways in::

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/run.py [--seed 42] [--quick] [--traced] [--output FILE]

The first runs one workload and prints, as its last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` — the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``.  The second runs all six, prints
every metric by name with its unit, writes a results file that
``compare.py`` reads, and exits 1 if any output was wrong.

``BENCHMARK.json`` lists four of the six: the PR driver's time limit
buys runs long enough to be steady on a shared host for four workloads,
not six (README.md, "Run shape").  The other two run here only.

Every pass of a workload runs in a fresh child process (``child.py``),
one at a time; see README.md for the run shape and the estimators.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: Untraced runs: this many fresh processes share the time budget, so
#: set-up is sampled that many times and repeats interleave over time.
PASSES = 4
#: Fewest timed repeats per pass, whatever the budget.
MIN_REPEATS = 2
#: ``--quick``: op counts / 10, one pass of exactly two repeats.
QUICK_SCALE = 0.1
#: A pass whose calibration loop ran this much slower than the best
#: pass of the run is flagged ``noisy``.
NOISY_CALIB = 1.15
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not produce a result."""


def run_pass(workload, seed, budget, repeats, scale, traced) -> dict:
    """One child process: set-up, then timed repeats."""
    # The sanitizer stays off: it is not what users run.  A fixed hash
    # seed makes every pass execute the same dict probes, which takes
    # one source of pass-to-pass variance out of the timings.
    env = {k: v for k, v in os.environ.items() if k != "GYAN_SIMSAN"}
    env["PYTHONHASHSEED"] = "0"
    command = [
        sys.executable, str(BENCH / "child.py"),
        "--workload", workload, "--seed", str(seed),
        "--budget", f"{budget:.3f}", "--repeats", str(repeats),
        "--scale", str(scale), "--traced", str(int(traced)),
    ]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: pass exceeded {CHILD_TIMEOUT_S} s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{workload}: pass exited with code {done.returncode}")
    return json.loads(lines[-1])


def spread(values) -> dict:
    """Median and quartiles of the repeats behind a reported value."""
    block = {"n": len(values), "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        block.update(q1=q1, q3=q3)
    return block


def percentile(sorted_values, share: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = -(-share * len(sorted_values) // 1) - 1
    return sorted_values[int(max(0, min(len(sorted_values) - 1, rank)))]


def floor_seconds(repeats) -> float:
    """Each stretch at the best time any of ``repeats`` did it in, summed."""
    return sum(map(min, zip(*(r["stretch_s"] for r in repeats))))


def outcome(repeats, digests) -> dict:
    """Correctness over a list of repeat entries."""
    attempted = sum(r["ops"] for r in repeats)
    failed = sum(r["failed"] for r in repeats)
    problems = [p for r in repeats for p in r["problems"]]
    if len(digests) > 1:
        failed = attempted
        problems.append("sim_digest differs between passes")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:10],
    }


def latency(repeats) -> dict:
    """Per-op host latency pooled over untraced repeats (ms)."""
    pooled = sorted(ms for r in repeats for ms in r.get("op_ms", ()))
    if not pooled:
        return {}
    info = {
        "op_ms_p50": percentile(pooled, 0.50),
        "op_ms_p95": percentile(pooled, 0.95),
        "op_ms_p99": percentile(pooled, 0.99),
        "op_ms_samples": len(pooled),
    }
    aged = [r["aged_op_ratio"] for r in repeats if "aged_op_ratio" in r]
    if aged:
        info["aged_op_ratio"] = statistics.median(aged)
    return info


def measure(spec, workload, seed, seconds, scale, passes, repeats) -> dict:
    """The untraced run of one workload: the end-to-end metrics."""
    done = [
        run_pass(workload, seed, seconds / passes, repeats, scale, traced=False)
        for _ in range(passes)
    ]
    all_repeats = [r for p in done for r in p["repeats"]]
    digests = sorted({r["sim_digest"] for r in all_repeats})
    best_calib = min(p["calib_ms"] for p in done)
    # Host noise on a shared box is one-sided (a run is only ever slowed
    # down) and changes within a repeat, so throughput is ops over the
    # floor: each stretch of the workload at the best time any repeat
    # of the run did it in.  Set-up is sampled once per pass and
    # reported as the median; peak RSS as the largest.
    ops = all_repeats[0]["ops"]
    setups = [p["setup_s"] for p in done]
    peaks = [p["peak_rss_mib"] for p in done]
    reported = {
        "setup_s": (statistics.median(setups), setups),
        "ops_per_s": (
            ops / floor_seconds(all_repeats),
            [ops / floor_seconds(p["repeats"]) for p in done],
        ),
        "peak_rss_mib": (max(peaks), peaks),
    }
    metrics = {}
    for entry in spec["end_to_end"]:
        value, per_pass = reported[entry["name"]]
        metrics[entry["name"]] = {
            "value": value,
            "unit": entry["unit"],
            "better": entry["better"],
            "repeats": per_pass,
            "spread": spread(per_pass),
        }
    return {
        **outcome(all_repeats, digests),
        "sim_digest": digests[0],
        "metrics": metrics,
        "info": latency(all_repeats),
        "passes": [
            {
                "calib_ms": p["calib_ms"],
                "noisy": p["calib_ms"] > NOISY_CALIB * best_calib,
                "setup_s": p["setup_s"],
                "repeats": len(p["repeats"]),
            }
            for p in done
        ],
    }


def layer_values(done: dict) -> dict:
    """Every per-layer number one traced pass can give, by metric name."""
    traced, table = done["traced"], done["traced"]["layers"]
    values = dict(traced["counts"])
    for key, row in table.items():
        values[f"{key}_s"] = row["self_s"]
        values[f"{key}_n"] = row["n"]
    fleet_run = table.get("cluster.fleet.run", {"self_s": 0.0, "total_s": 0.0})
    decisions = values.get("cluster.fleet.mapping_decisions", 0)
    untraced_best = min(r["wall_s"] for r in done["repeats"])
    info = latency(done["repeats"])
    values.update({
        "cli.self_s": values.pop("cli_s", 0.0),
        "bench.root_s": traced["root_s"],
        "bench.calib_ms": done["calib_ms"],
        "cluster.fleet.run_s": fleet_run["total_s"],
        "cluster.fleet.self_s": fleet_run["self_s"],
        "cluster.fleet.us_per_decision": (
            fleet_run["total_s"] / decisions * 1e6 if decisions else 0.0
        ),
        "workloads.traces.generate_s": done["generate_s"],
        "sim_s_per_host_s": traced["sim_s"] / untraced_best,
        "trace_overhead": min(traced["walls_s"]) / untraced_best - 1.0,
        "op_ms_p50": info.get("op_ms_p50", 0.0),
        "op_ms_p95": info.get("op_ms_p95", 0.0),
    })
    if done["workload"] == "object-trace":
        values["object.op_ms_p99"] = info["op_ms_p99"]
        values["object.aged_op_ratio"] = info.get("aged_op_ratio", 0.0)
    return values


def trace(spec, workload, seed, seconds, scale, repeats) -> dict:
    """The traced run of one workload: the per-layer metrics.

    One pass: untraced repeats for half the budget (the base of
    ``trace_overhead`` and of the latency percentiles), then traced
    repeats for the other half.
    """
    done = run_pass(workload, seed, seconds, repeats, scale, traced=True)
    traced = done["traced"]
    values = layer_values(done)
    digests = sorted({r["sim_digest"] for r in done["repeats"]})
    result = outcome(done["repeats"], digests)
    result["attempted"] += traced["ops"]
    result["failed"] += traced["failed"]
    result["problems"] = (result["problems"] + traced["problems"])[:10]
    # Self times sum to the root spans by construction; a gap means a
    # span was lost or double-counted.
    ledger = sum(row["self_s"] for row in traced["layers"].values())
    if abs(ledger - traced["root_s"]) > 0.01 * traced["root_s"]:
        result["failed"] = result["attempted"]
        result["problems"].append(
            f"layer self times sum to {ledger:.6f} s, root spans to "
            f"{traced['root_s']:.6f} s"
        )
    result["correct"] = result["failed"] == 0
    return {
        **result,
        "sim_digest": digests[0],
        "metrics": {
            entry["name"]: {
                "value": values.get(entry["name"], 0),
                "unit": entry["unit"],
                "better": entry["better"],
            }
            for entry in spec["per_layer"]
        },
        "layers": traced["layers"],
        "trace_file": traced["trace_file"],
    }


def print_metrics(workload: str, result: dict) -> None:
    for name, metric in result["metrics"].items():
        print(f"{workload:<18} {name:<36} {metric['value']:>16.6g} {metric['unit']}")
    for name, value in result.get("info", {}).items():
        print(f"{workload:<18} {name:<36} {value:>16.6g} (untraced, not gated)")
    for problem in result["problems"]:
        print(f"{workload:<18} PROBLEM: {problem}")


def last_line(result: dict) -> str:
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": metric["value"], "unit": metric["unit"]}
            for name, metric in result["metrics"].items()
        },
    })


def environment() -> dict:
    simsan = os.environ.get("GYAN_SIMSAN")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "GYAN_SIMSAN": "unset" if simsan is None else f"{simsan!r}, removed for the passes",
    }


def run_all(spec, args) -> int:
    scale, passes, seconds = 1.0, PASSES, args.seconds
    if args.quick:
        scale, passes, seconds = QUICK_SCALE, 1, 0.0
    recorded = {}
    if scale == 1.0 and (BENCH / "expected.json").is_file():
        recorded = json.loads((BENCH / "expected.json").read_text())["sim_digest"]
    report = {
        "schema": "gyan.benchmark/v1",
        "seed": args.seed,
        "quick": args.quick,
        "traced": args.traced,
        "seconds": seconds,
        "environment": environment(),
        "workloads": {},
    }
    for name in WORKLOADS:
        if args.traced:
            repeats = 1 if args.quick else MIN_REPEATS
            result = trace(spec, name, args.seed, seconds, scale, repeats)
        else:
            result = measure(spec, name, args.seed, seconds, scale, passes, MIN_REPEATS)
        print_metrics(name, result)
        expected = recorded.get(str(args.seed), {}).get(name)
        note = ""
        if expected is not None:
            result["sim_digest_as_recorded"] = expected == result["sim_digest"]
            note = " (as recorded)" if expected == result["sim_digest"] else \
                " (DIFFERS from expected.json: simulated behaviour changed)"
        print(f"{name:<18} sim_digest {result['sim_digest']}{note}")
        print(f"{name:<18} failed {result['failed']} of {result['attempted']} ops")
        report["workloads"][name] = result
    stem = f"results-seed{args.seed}" + ("-quick" if args.quick else "") + \
        ("-traced" if args.traced else "")
    output = Path(args.output) if args.output else BENCH / "out" / f"{stem}.json"
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {output}")
    for name, result in report["workloads"].items():
        for index, one in enumerate(result.get("passes", ())):
            if one["noisy"]:
                print(f"note: {name} pass {index} ran on a slow machine "
                      f"(calibration {one['calib_ms']:.1f} ms)")
    return 0 if all(r["correct"] for r in report["workloads"].values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload and end "
                        "with the JSON result line")
    parser.add_argument("--seed", type=lambda text: abs(int(text)), default=42,
                        help="every input is generated from it (default 42)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per workload (default: run_seconds "
                        "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 gives the per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="all workloads, traced: the per-layer table")
    parser.add_argument("--quick", action="store_true",
                        help="all workloads at a tenth of the size, 2 repeats")
    parser.add_argument("--output", help="results file (default: bench/out/)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"bench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    try:
        if args.workload is None:
            return run_all(spec, args)
        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}")
        if args.trace:
            result = trace(spec, args.workload, args.seed, args.seconds, 1.0, MIN_REPEATS)
        else:
            result = measure(spec, args.workload, args.seed, args.seconds, 1.0,
                             PASSES, MIN_REPEATS)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print_metrics(args.workload, result)
    print(last_line(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
