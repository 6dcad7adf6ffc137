"""Consolidated headline reporting."""

import pytest

from repro.reporting import collect_headline_results, render_report


@pytest.fixture(scope="module")
def results():
    return collect_headline_results()


class TestCollection:
    def test_every_headline_regenerated(self, results):
        assert results.racon_cpu_unit_4t == pytest.approx(3.22, abs=0.01)
        assert results.racon_gpu_best_unbanded[:2] == (4, 1)
        assert results.racon_gpu_best_banded[:2] == (4, 16)
        assert results.racon_container_best_unbanded[:2] == (2, 4)
        assert results.racon_container_best_banded[:2] == (2, 8)
        assert results.racon_speedup == pytest.approx(2.05, abs=0.05)
        assert results.bonito_cpu_hours["Acinetobacter_pittii"] > 210
        assert results.stalls["memory_dependency"] == pytest.approx(70, abs=5)

    def test_report_renders_every_section(self):
        report = render_report()
        for needle in (
            "Racon GPU best (unbanded)",
            "Racon speedup",
            "CUDA API overhead",
            "Bonito Acinetobacter_pittii CPU",
            "stalls mem/exec/other",
            "~2x",
            ">50x",
        ):
            assert needle in report
        # Columns aligned: header and separator match widths.
        lines = report.splitlines()
        assert lines[1].startswith("=") and lines[3].startswith("-")
