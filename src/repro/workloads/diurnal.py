"""Diurnal heavy-traffic workload generator for the fleet tier.

Production Galaxy traffic is not a flat Poisson stream: submissions
follow a day curve (quiet nights, working-hours peak), the user
population sets the base rate, and incident-style burst storms ride on
top.  This module generates that shape deterministically — seeded
Poisson arrivals per tick, modulated by a 24-entry day curve and any
configured :class:`BurstStorm` windows — as *batched* arrival groups:
every tick emits at most one :class:`ArrivalBatch` per tool class, which
is exactly the same-instant burst shape the columnar fleet path
(:mod:`repro.cluster.fleet`) amortises its mapping over.

Everything is pure and seeded: the same :class:`DiurnalProfile` always
yields byte-identical batches, which the fleet determinism tests rely
on.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, replace

from repro.hotpath import hot_path

#: Seconds per day / per curve slot.
DAY_SECONDS = 86_400.0
HOUR_SECONDS = 3_600.0

#: Default 24-entry day curve (index = hour of day), normalised below.
#: Shape: 03:00 trough, steady morning ramp, 14:00–16:00 peak, evening
#: tail — the classic academic-service submission profile.
DEFAULT_DAY_CURVE: tuple[float, ...] = (
    0.45, 0.38, 0.33, 0.30, 0.32, 0.40,
    0.55, 0.75, 1.00, 1.25, 1.45, 1.55,
    1.50, 1.55, 1.65, 1.60, 1.45, 1.30,
    1.15, 1.05, 0.95, 0.80, 0.65, 0.52,
)


@dataclass(frozen=True)
class FleetToolClass:
    """One tool population in the fleet workload mix.

    ``gpu_seconds``/``cpu_seconds`` are the service times on the GPU and
    CPU arms; ``degradable`` marks classes whose CPU fallback is
    acceptable under overload (the brownout-style degrade-before-shed
    arm from PR 7) — long-running basecallers are not degradable, so
    they queue and ultimately shed instead.
    """

    name: str
    gpu_eligible: bool
    gpu_seconds: float
    cpu_seconds: float
    weight: float
    degradable: bool = False

    def __post_init__(self) -> None:
        # Service times become event-heap instants; zero is legal.
        for name in ("gpu_seconds", "cpu_seconds", "weight"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:  # also refuses NaN
                raise ValueError(
                    f"{self.name}: {name} must be non-negative and finite, "
                    f"got {value}"
                )

    @property
    def gpu_benefit(self) -> float:
        """The paper's GPU-benefit ratio: CPU time over GPU time.

        Tools whose kernels barely beat their CPU arm score low; the
        benefit-aware placement policy uses this to decide who may
        claim scarce GPU slots first (``inf`` for CPU-only tools keeps
        them out of the comparison entirely — they never ask for one).
        """
        if self.gpu_seconds <= 0.0:
            return math.inf
        return self.cpu_seconds / self.gpu_seconds


#: The paper-flavoured default mix: GYAN's two GPU tools plus the CPU
#: bulk that dominates real Galaxy traffic (weights sum to 1).
DEFAULT_FLEET_TOOLS: tuple[FleetToolClass, ...] = (
    FleetToolClass("racon_gpu", True, 240.0, 2_400.0, 0.20, degradable=True),
    FleetToolClass("bonito_gpu", True, 900.0, 21_600.0, 0.10),
    FleetToolClass("minimap2_cpu", False, 0.0, 300.0, 0.30),
    FleetToolClass("bwa_mem_cpu", False, 0.0, 600.0, 0.25),
    FleetToolClass("fastqc_cpu", False, 0.0, 120.0, 0.15),
)


def _require(owner: str, name: str, value: float, ok: bool, must: str) -> None:
    """Refuse a knob the generator cannot turn into a day: ``ok`` is the
    test ``value`` passed, ``must`` what it says to the caller."""
    if not ok:
        raise ValueError(f"{owner}: {name} must be {must}, got {value}")


@dataclass(frozen=True)
class BurstStorm:
    """A rate-multiplier window layered over the day curve."""

    start: float  #: seconds from the horizon start
    duration: float
    multiplier: float

    def __post_init__(self) -> None:
        # A NaN window never matches an instant: refused, not ignored.
        _require("storm", "start", self.start, math.isfinite(self.start),
                 "finite")
        for name in ("duration", "multiplier"):
            value = getattr(self, name)
            _require("storm", name, value, 0.0 <= value < math.inf,
                     "non-negative and finite")


@dataclass(frozen=True)
class ArrivalBatch:
    """All same-class arrivals of one tick, as one same-instant burst."""

    time: float
    tool: int  #: index into the profile's tool table
    count: int


def check_arrival(batch: ArrivalBatch, previous: float, tools: int) -> None:
    """Refuse a batch a fleet model cannot place: its time must be finite
    and not before ``previous`` (the last batch's), its tool an index
    into a table of ``tools`` classes."""
    if not (math.isfinite(batch.time) and batch.time >= previous):
        raise ValueError(
            f"arrival batch time {batch.time} is not finite or precedes "
            f"the previous batch's {previous}"
        )
    if not 0 <= batch.tool < tools:
        raise ValueError(
            f"arrival batch names tool {batch.tool}; the tool table has "
            f"{tools} classes"
        )


@dataclass(frozen=True)
class DiurnalProfile:
    """Knobs of the generator (see ``docs/fleet-scale.md``)."""

    users: int = 10_000
    jobs_per_user_day: float = 2.5
    days: float = 1.0
    tick_seconds: float = 60.0
    day_curve: tuple[float, ...] = DEFAULT_DAY_CURVE
    tools: tuple[FleetToolClass, ...] = DEFAULT_FLEET_TOOLS
    storms: tuple[BurstStorm, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        # Every refusal is here, so a profile that exists generates.
        if not self.tools:
            raise ValueError("profile needs at least one tool class")
        curve = self.day_curve
        if len(curve) != 24:
            raise ValueError(
                f"day_curve needs 24 hourly entries, got {len(curve)}"
            )
        for hour, value in enumerate(curve):
            _require("profile", f"day_curve[{hour}]", value,
                     0.0 <= value < math.inf, "non-negative and finite")
        if not sum(curve) > 0.0:
            raise ValueError("profile: day_curve needs a positive mean, "
                             "got all zeros")
        _require("profile", "users", self.users, self.users >= 0,
                 "non-negative")
        for name in ("jobs_per_user_day", "days", "tick_seconds"):
            value = getattr(self, name)
            _require("profile", name, value, 0.0 < value < math.inf,
                     "positive and finite")

    @functools.cached_property
    def batches(self) -> tuple[ArrivalBatch, ...]:
        """This profile's day, generated on first read and kept: every
        run over this one object shares it.  Equal profiles built apart
        each generate their own (the cache lives on the instance)."""
        return tuple(diurnal_batches(self))

    @property
    def expected_jobs(self) -> float:
        """Expected arrivals over the horizon, storms excluded."""
        return self.users * self.jobs_per_user_day * self.days

    def scaled_to(self, target_jobs: int) -> "DiurnalProfile":
        """The same shape with the user population resized so expected
        arrivals (storms excluded) reach ``target_jobs``."""
        if target_jobs < 0:
            raise ValueError(
                f"jobs must be non-negative, got {target_jobs}"
            )
        users = math.ceil(target_jobs / (self.jobs_per_user_day * self.days))
        return replace(self, users=users)


#: The canonical A/B storm window (seconds): a midday incident riding
#: the 14:00 peak, shared by the bench suite, the differential policy
#: tests, and ``repro fleet --ab`` so every comparison uses the same
#: diurnal seed and the same surge.
AB_STORM_START = 43_200.0
AB_STORM_DURATION = 7_200.0
AB_STORM_MULTIPLIER = 4.0


def ab_storm_profile(target_jobs: int, seed: int = 7) -> DiurnalProfile:
    """One diurnal day with the canonical A/B storm, sized to a target.

    This is the fixture every placement-policy comparison runs on: the
    same seed, the same 24-entry curve, the same midday storm — so any
    difference between two runs is the policy, nothing else.
    """
    storm = BurstStorm(
        start=AB_STORM_START,
        duration=AB_STORM_DURATION,
        multiplier=AB_STORM_MULTIPLIER,
    )
    return DiurnalProfile(seed=seed, storms=(storm,)).scaled_to(target_jobs)


def _poisson(rng: random.Random, lam: float) -> int:
    """A seeded Poisson draw.

    Knuth's product method below λ=30 (exact, O(λ)); above that a
    normal approximation (rounded, clamped) keeps large-λ ticks O(1) —
    at fleet rates λ per tick runs into the hundreds and the exact
    method's λ multiplications per draw would dominate generation.
    """
    if lam <= 0.0:
        return 0
    if lam < 30.0:
        threshold = math.exp(-lam)
        count, product = 0, rng.random()
        while product > threshold:
            count += 1
            product *= rng.random()
        return count
    sample = rng.gauss(lam, math.sqrt(lam))
    return max(0, round(sample))


def storm_multiplier(storms: tuple[BurstStorm, ...], t: float) -> float:
    """Combined storm multiplier active at instant ``t``."""
    factor = 1.0
    for storm in storms:
        if storm.start <= t < storm.start + storm.duration:
            factor *= storm.multiplier
    return factor


@hot_path
def diurnal_batches(profile: DiurnalProfile) -> list[ArrivalBatch]:
    """Generate the seeded arrival batches for one profile.

    Returns batches sorted by (time, tool index); ticks or classes that
    drew zero arrivals emit nothing.  The day curve is normalised to
    mean 1.0, so the expected total (storms excluded) is exactly
    :attr:`DiurnalProfile.expected_jobs`.
    """
    rng = random.Random(profile.seed)
    curve_mean = sum(profile.day_curve) / len(profile.day_curve)
    base_rate = profile.expected_jobs / (profile.days * DAY_SECONDS)
    horizon = profile.days * DAY_SECONDS
    tick = profile.tick_seconds
    batches: list[ArrivalBatch] = []
    ticks = int(horizon / tick)
    for i in range(ticks):
        t = i * tick
        hour = int((t % DAY_SECONDS) / HOUR_SECONDS)
        shape = profile.day_curve[hour] / curve_mean
        rate = base_rate * shape * storm_multiplier(profile.storms, t)
        lam_tick = rate * tick
        for tool_index, tool in enumerate(profile.tools):
            count = _poisson(rng, lam_tick * tool.weight)
            if count:
                batches.append(ArrivalBatch(time=t, tool=tool_index, count=count))
    return batches
