"""Compare two results files of ``run.py``: ``compare.py OLD.json NEW.json``.

For every (workload, end-to-end metric) prints the ratio NEW / OLD with
its base and one verdict, from the metric's bound in ``BENCHMARK.json``
and each side's repeats:

``improved`` / ``regressed``
    NEW is better / worse than OLD by more than the bound, and either
    the run-to-run spread is within the bound or every repeat of one
    side beats every repeat of the other.
``unchanged``
    The reported values differ by no more than the bound and the spread
    is within the bound.
``unresolved``
    This pair of runs cannot tell; run again on a quieter machine.
    Either the spread (the wider inter-quartile range of the two sides,
    as a share of OLD's median) exceeds the bound, or a timing differs by
    more than the bound while the two sides' calibration loops differ by
    more than 15 %: the machine, not the commit, changed speed.  (This
    box sits on 1.1-1.5x slow plateaus for tens of seconds; a run taken
    wholly inside one is consistent in itself and slow.)

Exits 1 on any ``regressed`` or any rise in the share of failed
operations, else 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Calibration readings further apart than this mean the machine ran at
#: different speeds for the two sides (the ``noisy`` threshold of run.py).
MACHINE_DRIFT = 1.15


def iqr(metric: dict) -> float:
    block = metric["spread"]
    return block["q3"] - block["q1"] if "q1" in block else 0.0


def verdict(old: dict, new: dict, bound: float) -> tuple[str, float, float]:
    """(verdict, fraction by which NEW is worse, spread as a share)."""
    sign = 1.0 if old["better"] == "lower" else -1.0
    worse_by = sign * (new["value"] - old["value"]) / abs(old["value"])
    noise = max(iqr(old), iqr(new)) / abs(old["spread"]["median"])
    # Mirror higher-is-better repeats so lower reads better on both
    # sides; the sides separate when their repeats do not overlap at all.
    old_repeats = [sign * value for value in old["repeats"]]
    new_repeats = [sign * value for value in new["repeats"]]
    separated = (
        max(new_repeats) < min(old_repeats) or max(old_repeats) < min(new_repeats)
    )
    if abs(worse_by) > bound and (noise <= bound or separated):
        return ("regressed" if worse_by > 0 else "improved"), worse_by, noise
    if noise > bound:
        return "unresolved", worse_by, noise
    return "unchanged", worse_by, noise


def calibration(run: dict) -> float:
    readings = sorted(one["calib_ms"] for one in run["passes"])
    return readings[len(readings) // 2]


def compare(old: dict, new: dict, spec: dict) -> tuple[list[str], bool]:
    bounds = {m["name"]: (m["bound"], m["unit"]) for m in spec["end_to_end"]}
    lines, bad = [], False
    for name, old_run in old["workloads"].items():
        new_run = new["workloads"].get(name)
        if new_run is None:
            lines.append(f"{name}: missing from NEW")
            bad = True
            continue
        old_share = old_run["failed"] / old_run["attempted"]
        new_share = new_run["failed"] / new_run["attempted"]
        if new_share > old_share:
            lines.append(f"{name}: failed share rose {old_share:.6f} -> {new_share:.6f}")
            bad = True
        if old_run["sim_digest"] != new_run["sim_digest"]:
            lines.append(f"{name}: sim_digest differs (simulated behaviour changed)")
        speeds = calibration(old_run), calibration(new_run)
        drifted = max(speeds) > MACHINE_DRIFT * min(speeds)
        for metric, (bound, unit) in bounds.items():
            before, after = old_run["metrics"][metric], new_run["metrics"][metric]
            what, worse_by, noise = verdict(before, after, bound)
            if drifted and what in ("regressed", "improved") and "s" in unit.split("/"):
                what = "unresolved"  # a timing, and the machine changed speed
            bad = bad or what == "regressed"
            lines.append(
                f"{name:<18} {metric:<13} {what:<10} "
                f"new/old {after['value'] / before['value']:.4f} "
                f"(old {before['value']:.6g} {before['unit']}, "
                f"new {after['value']:.6g}; worse by {worse_by:+.1%}, "
                f"spread {noise:.1%}, bound {bound:.0%})"
            )
        if drifted:
            lines.append(
                f"{name}: calibration {speeds[0]:.1f} ms (old) vs {speeds[1]:.1f} ms "
                "(new): the machine changed speed between the sides"
            )
    return lines, bad


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    old, new = (json.loads(Path(path).read_text()) for path in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, bad = compare(old, new, spec)
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
