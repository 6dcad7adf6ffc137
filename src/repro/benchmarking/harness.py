"""The benchmark harness: time scenarios, summarise, emit stable JSON.

Design rules:

* **Deterministic schema.** The JSON layout (key set, key order, types)
  never varies between runs — only the measured values do — so CI can
  validate the artifact structurally and the ROADMAP's perf trajectory
  stays diffable.  Keys are emitted sorted and floats rounded to a fixed
  precision.
* **Fresh state per repeat.** A scenario's ``setup`` builds a new world
  (host, deployment, sessions) for every repeat; only ``run`` is timed.
  Simulation state is mutable, so reusing it across repeats would time
  a different (usually cheaper) workload from the second repeat on.
* **Percentiles without interpolation.** With a handful of repeats,
  p50/p95 are taken as order statistics (nearest-rank), which keeps the
  summary deterministic and explainable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.observability.export import render_document

#: Schema identifier embedded in every report; bump on layout changes.
BENCH_SCHEMA = "gyan.bench/v1"

#: Rounding applied to every float in the emitted JSON (microseconds are
#: beyond timer noise for these scenarios; 6 digits keep files tidy).
_FLOAT_DIGITS = 6


@dataclass(frozen=True)
class RunOutcome:
    """What one timed ``run`` accomplished.

    ``simulated_seconds`` is how far virtual time advanced (0.0 when not
    meaningful); ``work_units`` is the scenario's own notion of throughput
    numerator — mapped jobs for the fleet suite, 0.0 when the scenario
    has no natural unit.  Returning a bare float from ``run`` is the
    shorthand for ``RunOutcome(simulated_seconds=value)``.
    """

    simulated_seconds: float = 0.0
    work_units: float = 0.0


@dataclass(frozen=True)
class BenchScenario:
    """One named, repeatable measurement.

    ``setup`` builds fresh state; ``run`` does the timed work and returns
    either the number of *simulated* seconds it advanced (0.0 when
    simulated time is not meaningful, e.g. pure data-structure
    benchmarks) or a :class:`RunOutcome` carrying simulated seconds plus
    a work-unit count (e.g. jobs mapped) for throughput headlines.
    """

    name: str
    description: str
    setup: Callable[[], Any]
    run: Callable[[Any], "float | RunOutcome"]
    #: Free-form, schema-stable facts about the workload size (job
    #: counts, sample counts) for the report's readers.
    workload: dict[str, int | float | str] = field(default_factory=dict)


@dataclass(frozen=True)
class ScenarioResult:
    """Summary of all repeats of one scenario."""

    name: str
    description: str
    repeats: int
    wall_seconds: list[float]
    simulated_seconds: float
    workload: dict[str, int | float | str]
    #: Work units (e.g. jobs mapped) accomplished by one run; 0.0 when
    #: the scenario has no natural throughput unit.
    work_units: float = 0.0

    @property
    def mean(self) -> float:
        return sum(self.wall_seconds) / len(self.wall_seconds)

    def percentile(self, fraction: float) -> float:
        """Nearest-rank order statistic over the repeats."""
        ordered = sorted(self.wall_seconds)
        rank = max(0, min(len(ordered) - 1, int(fraction * len(ordered))))
        return ordered[rank]

    @property
    def sim_seconds_per_wall_second(self) -> float:
        """Simulated-time throughput at the median repeat."""
        p50 = self.percentile(0.5)
        if p50 <= 0 or self.simulated_seconds <= 0:
            return 0.0
        return self.simulated_seconds / p50

    @property
    def work_units_per_second(self) -> float:
        """Work-unit throughput (e.g. mapped jobs/sec) at the median."""
        p50 = self.percentile(0.5)
        if p50 <= 0 or self.work_units <= 0:
            return 0.0
        return self.work_units / p50

    def as_dict(self) -> dict:
        r = round
        return {
            "name": self.name,
            "description": self.description,
            "repeats": self.repeats,
            "simulated_seconds": r(self.simulated_seconds, _FLOAT_DIGITS),
            "sim_seconds_per_wall_second": r(
                self.sim_seconds_per_wall_second, _FLOAT_DIGITS
            ),
            "wall_seconds": {
                "mean": r(self.mean, _FLOAT_DIGITS),
                "p50": r(self.percentile(0.5), _FLOAT_DIGITS),
                "p95": r(self.percentile(0.95), _FLOAT_DIGITS),
                "min": r(min(self.wall_seconds), _FLOAT_DIGITS),
                "max": r(max(self.wall_seconds), _FLOAT_DIGITS),
            },
            "work_units": r(self.work_units, _FLOAT_DIGITS),
            "work_units_per_second": r(
                self.work_units_per_second, _FLOAT_DIGITS
            ),
            "workload": dict(self.workload),
        }


@dataclass(frozen=True)
class BenchReport:
    """A full suite run, serialisable to ``BENCH_<suite>.json``."""

    suite: str
    quick: bool
    repeats: int
    results: list[ScenarioResult]

    def as_dict(self) -> dict:
        return {
            "schema": BENCH_SCHEMA,
            "suite": self.suite,
            "quick": self.quick,
            "repeats": self.repeats,
            "scenarios": [result.as_dict() for result in self.results],
        }

    def render_json(self) -> str:
        return render_document(self.as_dict())

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.render_json())

    def render_text(self) -> str:
        lines = [
            f"suite: {self.suite} ({'quick, ' if self.quick else ''}"
            f"{self.repeats} repeats)",
            f"{'scenario':<24}{'p50 (s)':>10}{'p95 (s)':>10}"
            f"{'mean (s)':>10}{'sim s / wall s':>16}{'work/s':>12}",
        ]
        for result in self.results:
            throughput = result.sim_seconds_per_wall_second
            work_rate = result.work_units_per_second
            lines.append(
                f"{result.name:<24}{result.percentile(0.5):>10.4f}"
                f"{result.percentile(0.95):>10.4f}{result.mean:>10.4f}"
                + (f"{throughput:>16.0f}" if throughput else f"{'-':>16}")
                + (f"{work_rate:>12.0f}" if work_rate else f"{'-':>12}")
            )
        return "\n".join(lines) + "\n"


def run_scenario(scenario: BenchScenario, repeats: int) -> ScenarioResult:
    """Time ``repeats`` fresh runs of one scenario."""
    if repeats <= 0:
        raise ValueError(f"repeats must be positive, got {repeats}")
    walls: list[float] = []
    simulated = 0.0
    work_units = 0.0
    for _ in range(repeats):
        context = scenario.setup()
        started = time.perf_counter()
        outcome = scenario.run(context)
        walls.append(time.perf_counter() - started)
        if isinstance(outcome, RunOutcome):
            simulated = float(outcome.simulated_seconds)
            work_units = float(outcome.work_units)
        else:
            simulated = float(outcome)
    return ScenarioResult(
        name=scenario.name,
        description=scenario.description,
        repeats=repeats,
        wall_seconds=walls,
        simulated_seconds=simulated,
        workload=dict(scenario.workload),
        work_units=work_units,
    )


def run_suite(
    scenarios: Sequence[BenchScenario],
    suite: str,
    repeats: int = 5,
    quick: bool = False,
) -> BenchReport:
    """Run every scenario and collect a report."""
    results = [run_scenario(scenario, repeats) for scenario in scenarios]
    return BenchReport(suite=suite, quick=quick, repeats=repeats, results=results)


def validate_report_dict(data: dict) -> list[str]:
    """Structural validation of a report dict; returns problem strings.

    Used by the CI ``bench-smoke`` job and the schema tests: an empty
    list means the artifact matches :data:`BENCH_SCHEMA`.
    """
    problems: list[str] = []

    def expect(condition: bool, message: str) -> None:
        if not condition:
            problems.append(message)

    expect(data.get("schema") == BENCH_SCHEMA,
           f"schema is {data.get('schema')!r}, expected {BENCH_SCHEMA!r}")
    expect(isinstance(data.get("suite"), str), "suite must be a string")
    expect(isinstance(data.get("quick"), bool), "quick must be a bool")
    expect(isinstance(data.get("repeats"), int) and data.get("repeats", 0) > 0,
           "repeats must be a positive int")
    scenarios = data.get("scenarios")
    expect(isinstance(scenarios, list) and scenarios,
           "scenarios must be a non-empty list")
    for i, scenario in enumerate(scenarios or []):
        where = f"scenarios[{i}]"
        if not isinstance(scenario, dict):
            problems.append(f"{where} must be an object")
            continue
        for key, kind in (
            ("name", str),
            ("description", str),
            ("repeats", int),
            ("simulated_seconds", (int, float)),
            ("sim_seconds_per_wall_second", (int, float)),
            ("work_units", (int, float)),
            ("work_units_per_second", (int, float)),
            ("workload", dict),
            ("wall_seconds", dict),
        ):
            expect(isinstance(scenario.get(key), kind),
                   f"{where}.{key} must be {kind}")
        wall = scenario.get("wall_seconds")
        if isinstance(wall, dict):
            for key in ("mean", "p50", "p95", "min", "max"):
                value = wall.get(key)
                expect(isinstance(value, (int, float)) and value >= 0,
                       f"{where}.wall_seconds.{key} must be a "
                       "non-negative number")
    return problems
