"""One pass of one workload in a fresh process; ``run.py`` starts it.

A pass is: a fixed calibration loop, set-up (import the program, make
the inputs, one untimed warm-up operation), then timed repeats until the
budget is spent.  With ``--traced 1`` the second half of the budget
repeats the workload with the span wrappers installed.  The last line of
standard output is the pass as one JSON object.
"""

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def calibrate() -> float:
    """Host ms of a fixed arithmetic loop: how fast is this machine now?"""
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return (time.perf_counter() - start) * 1000.0


def rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_repeats(workload, budget_s: float, at_least: int, reference: str | None):
    """Repeat until ``budget_s`` of measured time is spent.

    Returns the repeats, the spans of each, and peak RSS after the first.
    """
    repeats, spans, spent, peak = [], [], 0.0, None
    # Stop when the middle of the next repeat would fall past the budget:
    # measured time then averages the budget, not budget + half a repeat,
    # and a run's wall time stays predictable for the driver's limit.
    while len(repeats) < at_least or spent + 0.5 * spent / len(repeats) < budget_s:
        workload.tracer.reset()
        # Collect the previous repeat's garbage now, outside the timed
        # region: left to the collector it lands in every other repeat
        # (measured: alternating 1.0x / 1.2x walls on object-trace).
        # Inside a repeat the collector runs at its defaults.
        gc.collect()
        repeat = workload.repeat()
        if reference is None:
            reference = repeat.digest
        elif repeat.digest != reference:
            repeat.failed = repeat.ops
            repeat.problems.append("sim_digest differs between repeats")
        if peak is None:
            # Read after the first repeat so the figure does not depend
            # on how many repeats the time budget allowed.
            peak = rss_mib()
        spent += repeat.wall_s
        repeats.append(repeat)
        spans.append(workload.tracer.spans)
    return repeats, spans, peak


def describe(repeat) -> dict:
    entry = {
        "wall_s": repeat.wall_s,
        "ops": repeat.ops,
        "failed": repeat.failed,
        "sim_digest": repeat.digest,
        "sim_s": repeat.sim_s,
        "problems": repeat.problems,
        "stretch_s": repeat.stretch_s,
    }
    if repeat.op_s:
        quarter = len(repeat.op_s) // 4
        entry["op_ms"] = [round(s * 1000.0, 6) for s in repeat.op_s]
        if quarter:
            first = statistics.median(repeat.op_s[:quarter])
            last = statistics.median(repeat.op_s[-quarter:])
            entry["aged_op_ratio"] = last / first
    return entry


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--repeats", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    calib_ms = min(calibrate() for _ in range(3))
    setup_start = time.perf_counter()
    sys.path.insert(0, str(BENCH.parent / "src"))
    import repro.cli  # noqa: F401  (the program under test)

    from tracing import Tracer, fold, root_seconds
    from workloads import OUT, WORKLOADS

    OUT.mkdir(exist_ok=True)
    tracer = Tracer()
    workload = WORKLOADS[args.workload](args.seed, args.scale, tracer)
    workload.warm_up()
    setup_s = time.perf_counter() - setup_start

    budget = args.budget / 2 if args.traced else args.budget
    repeats, _, peak = timed_repeats(workload, budget, args.repeats, None)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "calib_ms": calib_ms,
        "setup_s": setup_s,
        "generate_s": workload.generate_s,
        "peak_rss_mib": peak,
        "repeats": [describe(r) for r in repeats],
        "counts": repeats[0].counts,
    }

    if args.traced:
        tracer.install()
        traced, span_lists, _ = timed_repeats(
            workload, budget, args.repeats, repeats[0].digest
        )
        # The layer table is that of the fastest traced repeat: one
        # consistent set of numbers that sums to its own root.
        fastest = min(range(len(traced)), key=lambda i: traced[i].wall_s)
        best, best_spans = traced[fastest], span_lists[fastest]
        table = fold(best_spans)
        result["traced"] = {
            "walls_s": [r.wall_s for r in traced],
            "failed": sum(r.failed for r in traced),
            "ops": sum(r.ops for r in traced),
            "problems": [p for r in traced for p in r.problems],
            "wall_s": best.wall_s,
            "root_s": root_seconds(best_spans),
            "sim_s": best.sim_s,
            "counts": best.counts,
            "layers": table,
        }
        origin = best_spans[0][1]
        trace_path = OUT / f"trace-{args.workload}.json"
        with open(trace_path, "w") as stream:
            json.dump({
                "workload": args.workload,
                "seed": args.seed,
                "span_fields": ["key", "start_s", "end_s", "parent", "op"],
                "spans": [
                    [key, round(start - origin, 9), round(end - origin, 9), parent, op]
                    for key, start, end, parent, op in best_spans
                ],
                "root_s": result["traced"]["root_s"],
                "layers": table,
            }, stream)
        result["traced"]["trace_file"] = str(trace_path.relative_to(BENCH.parent))

    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
