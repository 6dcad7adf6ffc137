"""Brownout ladder: progressive GPU-degradation before job shedding.

Under sustained saturation a deployment should not fall off a cliff —
it should *brown out*: first give up the accelerations that buy the
least, then the rest, and only shed work as the last rung.  The ladder
is keyed by each tool's GPU benefit (the paper's end-to-end speedups:
Bonito basecalling is >50×, Racon polishing ~2×), so the capacity
reclaimed first is the capacity that was doing the least good:

==== =====================================================
rung behaviour
==== =====================================================
0    normal operation — mapper decides freely
1    low-benefit tools (speedup ≤ :data:`LOW_BENEFIT_MAX`) lose
     GPU mapping and run on CPU
2    every non-pinned tool loses GPU mapping
3    new low-benefit jobs are shed outright (typed
     :data:`~repro.resilience.shedding.ShedReason.BROWNOUT_SHED`)
==== =====================================================

Escalation is hysteretic and fully deterministic on the virtual clock:
the saturation signal (bounded-queue depth ÷ limit, fed by the
:class:`~repro.resilience.overload.OverloadController`) must stay at or
above :data:`SATURATION_THRESHOLD` for :data:`SUSTAIN_S` virtual seconds
to climb one rung, and below it for :data:`RECOVER_S` to step back down —
a single burst spike cannot flap the ladder.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: End-to-end GPU-vs-CPU benefit per shipped tool, from the paper's
#: evaluation: Bonito "more than 50x", Racon ~2x end to end; seqstats is
#: a CPU utility with no GPU path at all.
TOOL_GPU_BENEFIT: dict[str, float] = {
    "bonito": 52.0,
    "racon": 2.0,
    "seqstats": 1.0,
}

#: Highest brownout rung.
MAX_BROWNOUT_LEVEL = 3

#: Saturation (bounded-queue depth ÷ limit) at or above which the
#: ladder counts a destination as saturated.
SATURATION_THRESHOLD = 0.8
#: Virtual seconds of sustained saturation that climb one rung.
SUSTAIN_S = 4.0
#: Virtual seconds of calm that step one rung back down.
RECOVER_S = 8.0
#: Tools whose GPU benefit is at most this are "low benefit".
LOW_BENEFIT_MAX = 5.0


@dataclass
class BrownoutController:
    """Hysteretic load-shedding ladder driven by an external saturation signal."""

    level: int = 0
    #: (time, old_level, new_level) history for tests and observability.
    transitions: list[tuple[float, int, int]] = field(default_factory=list)
    _saturated_since: float | None = field(default=None, repr=False)
    _calm_since: float | None = field(default=None, repr=False)

    # -- signal ingestion ---------------------------------------------

    def observe(self, saturation: float, now: float) -> int:
        """Feed one saturation sample (depth/limit ratio); return the level.

        Deterministic: the level only depends on the sequence of
        (saturation, now) samples, which the overload controller emits
        at admission/release points on the virtual clock.
        """
        if saturation >= SATURATION_THRESHOLD:
            self._calm_since = None
            if self._saturated_since is None:
                self._saturated_since = now
            elif (
                now - self._saturated_since >= SUSTAIN_S
                and self.level < MAX_BROWNOUT_LEVEL
            ):
                self._set_level(self.level + 1, now)
                self._saturated_since = now
        else:
            self._saturated_since = None
            if self._calm_since is None:
                self._calm_since = now
            elif (
                now - self._calm_since >= RECOVER_S
                and self.level > 0
            ):
                self._set_level(self.level - 1, now)
                self._calm_since = now
        return self.level

    # -- policy queries -----------------------------------------------

    def benefit(self, tool_id: str) -> float:
        return TOOL_GPU_BENEFIT.get(tool_id, 1.0)

    def is_low_benefit(self, tool_id: str) -> bool:
        return self.benefit(tool_id) <= LOW_BENEFIT_MAX

    def allows_gpu(self, tool_id: str) -> bool:
        """May this tool still be mapped to a GPU at the current rung?"""
        if self.level >= 2:
            return False
        if self.level >= 1 and self.is_low_benefit(tool_id):
            return False
        return True

    def should_shed(self, tool_id: str) -> bool:
        """Is the ladder at its shed rung for this tool class?"""
        return self.level >= MAX_BROWNOUT_LEVEL and self.is_low_benefit(tool_id)

    # -- internals -----------------------------------------------------

    def _set_level(self, new_level: int, now: float) -> None:
        old = self.level
        if old == new_level:
            return
        self.level = new_level
        self.transitions.append((now, old, new_level))

    @property
    def peak_level(self) -> int:
        """Highest rung the ladder ever reached."""
        if not self.transitions:
            return self.level
        return max(new for _, _, new in self.transitions)
