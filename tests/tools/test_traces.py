"""Arrival-trace generation and replay."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.traces import (
    TraceReplayer,
    generate_trace,
)


class TestGeneration:
    def test_reproducible_by_seed(self):
        a = generate_trace(n_jobs=15, seed=3)
        b = generate_trace(n_jobs=15, seed=3)
        assert a.entries == b.entries
        assert generate_trace(n_jobs=15, seed=4).entries != a.entries

    def test_arrivals_strictly_increasing(self):
        trace = generate_trace(n_jobs=50, seed=1)
        times = [e.arrival_time for e in trace.entries]
        assert times == sorted(times)
        assert all(t > 0 for t in times)

    def test_tool_mix_respected(self):
        trace = generate_trace(
            n_jobs=300, seed=2, tool_mix={"racon": 0.8, "seqstats": 0.2}
        )
        counts = trace.tool_counts()
        assert set(counts) <= {"racon", "seqstats"}
        assert counts["racon"] > counts["seqstats"] * 2

    def test_duration_jitter_bounded(self):
        trace = generate_trace(n_jobs=100, seed=5)
        for entry in trace.entries:
            if entry.tool_id == "racon":
                assert 1.72 * 0.8 <= entry.duration <= 1.72 * 1.2

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_trace(n_jobs=0)
        with pytest.raises(ValueError):
            generate_trace(mean_interarrival_s=0)
        with pytest.raises(ValueError):
            generate_trace(tool_mix={"unknown_tool": 1.0})

    @given(st.integers(1, 40), st.integers(0, 100))
    @settings(max_examples=15, deadline=None)
    def test_generation_invariants(self, n_jobs, seed):
        trace = generate_trace(n_jobs=n_jobs, seed=seed)
        assert len(trace) == n_jobs
        assert all(e.duration > 0 for e in trace.entries)


class TestReplay:
    def test_replay_places_every_gpu_job(self, deployment):
        trace = generate_trace(n_jobs=12, mean_interarrival_s=3.0, seed=7)
        result = TraceReplayer(deployment).replay(trace)
        assert len(result.jobs) == 12
        for job in result.jobs:
            if job.entry.tool_id in ("racon", "bonito"):
                assert job.gpu_enabled
                assert all(g in ("0", "1") for g in job.gpu_ids)
            else:
                assert not job.gpu_enabled

    def test_devices_clean_after_replay(self, deployment):
        trace = generate_trace(n_jobs=10, seed=8)
        TraceReplayer(deployment).replay(trace)
        assert all(d.is_idle for d in deployment.gpu_host.devices)

    def test_contention_produces_colocation(self, deployment):
        """A dense trace overlaps jobs: some device must host >1 at once."""
        trace = generate_trace(n_jobs=20, mean_interarrival_s=0.5, seed=9)
        result = TraceReplayer(deployment).replay(trace)
        assert max(result.max_concurrent_per_gpu.values()) > 1

    def test_sparse_trace_never_colocates(self, deployment):
        trace = generate_trace(
            n_jobs=6,
            mean_interarrival_s=200.0,
            seed=10,
            tool_mix={"racon": 1.0},
        )
        result = TraceReplayer(deployment).replay(trace)
        assert max(result.max_concurrent_per_gpu.values()) == 1
        assert result.scattered_jobs == 0

    def test_memory_strategy_reduces_scatter(self):
        """The A1 finding over a whole trace: memory allocation never
        scatters, PID allocation does under load."""
        from repro.core.orchestrator import build_deployment
        from repro.tools.executors import register_paper_tools

        trace = generate_trace(n_jobs=25, mean_interarrival_s=0.5, seed=11)
        results = {}
        for strategy in ("pid", "memory"):
            deployment = build_deployment(allocation_strategy=strategy)
            register_paper_tools(deployment.app)
            results[strategy] = TraceReplayer(deployment).replay(trace)
        assert results["memory"].scattered_jobs == 0
        assert results["pid"].scattered_jobs >= results["memory"].scattered_jobs
