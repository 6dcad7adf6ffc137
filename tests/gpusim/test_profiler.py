"""NVProf-like profiler: hotspots, stall attribution, merging."""

import pytest
from hypothesis import given, strategies as st

from repro.gpusim.profiler import CudaProfiler, StallAnalysis


def make_profiler_with(records):
    profiler = CudaProfiler()
    for name, category, duration in records:
        profiler.record_api(name, category, start=0.0, duration=duration, device_index=0)
    return profiler


class TestHotspots:
    def test_sorted_by_time_desc(self):
        profiler = make_profiler_with(
            [("a", "kernel", 1.0), ("b", "sync", 5.0), ("c", "memcpy_htod", 2.0)]
        )
        names = [h.name for h in profiler.hotspots()]
        assert names == ["b", "c", "a"]

    def test_percentages_sum_to_100(self):
        profiler = make_profiler_with(
            [("a", "kernel", 1.0), ("b", "sync", 3.0), ("a", "kernel", 2.0)]
        )
        assert sum(h.pct for h in profiler.hotspots()) == pytest.approx(100.0)

    def test_grouping_by_name(self):
        profiler = make_profiler_with([("a", "kernel", 1.0), ("a", "kernel", 2.0)])
        spot = profiler.hotspots()[0]
        assert spot.calls == 2 and spot.total_time == pytest.approx(3.0)

    def test_top_limits(self):
        profiler = make_profiler_with(
            [(f"k{i}", "kernel", float(i)) for i in range(1, 6)]
        )
        assert len(profiler.hotspots(top=2)) == 2

    def test_hotspot_pct_absent_name(self):
        assert make_profiler_with([]).hotspot_pct("nothing") == 0.0

    def test_empty_profiler(self):
        profiler = CudaProfiler()
        assert profiler.hotspots() == []
        assert profiler.total_time() == 0.0


def record_kernel(profiler, name, duration, compute_time, memory_time):
    """A kernel record with its roofline split, as a launch writes it."""
    profiler.record_api(
        name=name,
        category="kernel",
        start=0.0,
        duration=duration,
        device_index=0,
        details={"compute_time": compute_time, "memory_time": memory_time},
    )


class TestStallAnalysis:
    def test_no_kernels_means_all_other(self):
        analysis = CudaProfiler().stall_analysis()
        assert analysis == StallAnalysis(0.0, 0.0, 100.0)

    def test_memory_bound_mix_lands_near_paper_split(self):
        """mem:comp = 3.5 -> ~70/20/10, the paper's Racon stall figures."""
        profiler = CudaProfiler()
        record_kernel(profiler, "poa", 4.5, compute_time=1.0, memory_time=3.5)
        analysis = profiler.stall_analysis()
        assert analysis.memory_dependency_pct == pytest.approx(70.0, abs=0.5)
        assert analysis.execution_dependency_pct == pytest.approx(20.0, abs=0.5)
        assert analysis.other_pct == pytest.approx(10.0)

    def test_percentages_always_sum_to_100(self):
        profiler = CudaProfiler()
        record_kernel(profiler, "k", 1.0, compute_time=0.7, memory_time=0.1)
        analysis = profiler.stall_analysis()
        total = (
            analysis.memory_dependency_pct
            + analysis.execution_dependency_pct
            + analysis.other_pct
        )
        assert total == pytest.approx(100.0, abs=0.1)

    @given(
        st.lists(
            st.tuples(st.floats(0.001, 10.0), st.floats(0.001, 10.0)), min_size=1, max_size=20
        )
    )
    def test_attribution_bounded(self, times):
        profiler = CudaProfiler()
        for compute, memory in times:
            record_kernel(
                profiler, "k", compute + memory, compute_time=compute, memory_time=memory
            )
        analysis = profiler.stall_analysis()
        assert 0 <= analysis.memory_dependency_pct <= 90.0
        assert 0 <= analysis.execution_dependency_pct <= 90.0

    def test_as_dict(self):
        d = StallAnalysis(70.0, 20.0, 10.0).as_dict()
        assert d == {
            "memory_dependency": 70.0,
            "execution_dependency": 20.0,
            "other": 10.0,
        }


class TestMergingAndReporting:
    def test_merge_combines_and_sorts(self):
        a = CudaProfiler()
        a.record_api("x", "kernel", start=5.0, duration=1.0, device_index=0)
        b = CudaProfiler()
        b.record_api("y", "kernel", start=1.0, duration=1.0, device_index=1)
        a.merge([b])
        assert [r.name for r in a.records] == ["y", "x"]

    def test_summary_table_format(self):
        profiler = make_profiler_with([("kernelA", "kernel", 2.0)])
        table = profiler.summary_table()
        assert "kernelA" in table and "100.00%" in table

    def test_category_totals(self):
        profiler = make_profiler_with(
            [("a", "sync", 1.0), ("b", "sync", 2.0), ("c", "kernel", 4.0)]
        )
        assert profiler.total_time("sync") == pytest.approx(3.0)
        assert profiler.total_time() == pytest.approx(7.0)
