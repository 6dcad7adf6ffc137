"""Brownout ladder: hysteretic escalation keyed by GPU benefit."""

import pytest

from repro.resilience.brownout import (
    MAX_BROWNOUT_LEVEL,
    TOOL_GPU_BENEFIT,
    BrownoutController,
)


@pytest.fixture
def brownout():
    # threshold 0.8, climb after 4 sustained seconds, recover after 8.
    return BrownoutController()


def saturate(brownout, start, seconds, saturation=1.0, step=1.0):
    """Feed a run of saturated samples; returns the final level."""
    t = start
    level = brownout.level
    while t <= start + seconds:
        level = brownout.observe(saturation, t)
        t += step
    return level


class TestLadder:
    def test_paper_benefits_shipped(self):
        assert TOOL_GPU_BENEFIT["bonito"] > 50.0
        assert TOOL_GPU_BENEFIT["racon"] == pytest.approx(2.0)

    def test_single_spike_does_not_escalate(self, brownout):
        assert brownout.observe(1.0, 0.0) == 0
        assert brownout.observe(0.0, 1.0) == 0
        assert brownout.level == 0

    def test_sustained_saturation_climbs_one_rung(self, brownout):
        assert saturate(brownout, 0.0, 4.0) == 1

    def test_continued_saturation_climbs_to_the_top(self, brownout):
        assert saturate(brownout, 0.0, 20.0) == MAX_BROWNOUT_LEVEL
        # The ladder never climbs past its top rung.
        assert saturate(brownout, 30.0, 20.0) == MAX_BROWNOUT_LEVEL

    def test_calm_recovers_one_rung_at_a_time(self, brownout):
        saturate(brownout, 0.0, 4.0)
        assert brownout.level == 1
        assert saturate(brownout, 10.0, 8.0, saturation=0.0) == 0

    def test_recovery_is_slower_than_escalation(self, brownout):
        saturate(brownout, 0.0, 4.0)
        # 4 calm seconds are not enough to step down (RECOVER_S=8).
        assert saturate(brownout, 10.0, 4.0, saturation=0.0) == 1

    def test_transitions_recorded(self, brownout):
        saturate(brownout, 0.0, 4.0)
        assert brownout.transitions[0][1:] == (0, 1)


class TestPolicy:
    def test_rung0_allows_everything(self, brownout):
        assert brownout.allows_gpu("racon")
        assert brownout.allows_gpu("bonito")
        assert not brownout.should_shed("racon")

    def test_rung1_drops_low_benefit_gpu_mapping(self, brownout):
        saturate(brownout, 0.0, 4.0)
        assert not brownout.allows_gpu("racon")   # ~2x: not worth it now
        assert brownout.allows_gpu("bonito")      # >50x: keep it
        assert not brownout.should_shed("racon")

    def test_rung2_drops_all_gpu_mapping(self, brownout):
        saturate(brownout, 0.0, 10.0)
        assert brownout.level == 2
        assert not brownout.allows_gpu("bonito")
        assert not brownout.should_shed("racon")

    def test_rung3_sheds_low_benefit_work(self, brownout):
        saturate(brownout, 0.0, 20.0)
        assert brownout.level == MAX_BROWNOUT_LEVEL
        assert brownout.should_shed("racon")
        assert brownout.should_shed("seqstats")
        assert not brownout.should_shed("bonito")

    def test_unknown_tools_default_to_low_benefit(self, brownout):
        saturate(brownout, 0.0, 20.0)
        assert brownout.should_shed("mystery_tool")

