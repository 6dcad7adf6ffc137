"""Differential placement parity: Process-ID vs Process-Allocated-Memory.

The paper's two allocation strategies (§IV-C1 and §IV-C2) agree while a
requested device is idle and *must* diverge under contention: the PID
strategy scatters an incoming job across every (busy) device, while the
memory strategy packs it onto the single device with the least
framebuffer in use.  These tests push identical job streams through both
strategies — on the stock and the resilient deployment — and assert
exactly that divergence, so a regression in either strategy (or in the
snapshot plumbing they share) shows up as a parity break.
"""

from __future__ import annotations

import pytest

from repro.core.orchestrator import build_deployment
from repro.tools.executors import register_paper_tools
from repro.workloads.traces import TraceReplayer, generate_trace

#: Dense arrivals so GPU jobs overlap and contention is guaranteed.
TRACE_KWARGS = dict(n_jobs=24, mean_interarrival_s=1.0, seed=7)


def replay(allocation: str, resilient: bool):
    deployment = build_deployment(
        allocation_strategy=allocation, resilient=resilient
    )
    register_paper_tools(deployment.app)
    trace = generate_trace(**TRACE_KWARGS)
    result = TraceReplayer(deployment).replay(trace)
    return trace, result


class TestMapperLevelDivergence:
    """The core contract at the decision level: both devices busy."""

    @pytest.fixture(params=[False, True], ids=["stock", "resilient"])
    def busy_deployment(self, request):
        deployment = build_deployment(resilient=request.param)
        register_paper_tools(deployment.app)
        host = deployment.gpu_host
        # Occupy both dies with different memory footprints: GPU 0 heavy,
        # GPU 1 light — the memory strategy has a unique best choice.
        p0 = host.launch_process(name="/usr/bin/heavy", cuda_visible_devices="0")
        host.device(0).memory.alloc(2_000_000_000, p0.pid)
        host.launch_process(name="/usr/bin/light", cuda_visible_devices="1")
        return deployment

    def test_pid_scatters_memory_packs(self, busy_deployment):
        deployment = busy_deployment
        job = deployment.app.submit("racon", {"workload": "unit"})

        deployment.set_allocation_strategy("pid")
        env_pid = deployment.mapper.prepare_environment(job)

        deployment.set_allocation_strategy("memory")
        env_mem = deployment.mapper.prepare_environment(job)

        # PID: every device hosts a process, so the job scatters to all.
        assert env_pid["CUDA_VISIBLE_DEVICES"] == "0,1"
        # Memory: the single least-loaded device — the light GPU 1.
        assert env_mem["CUDA_VISIBLE_DEVICES"] == "1"

    def test_strategies_agree_on_an_idle_host(self):
        deployment = build_deployment()
        register_paper_tools(deployment.app)
        job = deployment.app.submit("racon", {"workload": "unit"})
        envs = {}
        for name in ("pid", "memory"):
            deployment.set_allocation_strategy(name)
            envs[name] = deployment.mapper.prepare_environment(job)
        assert envs["pid"]["CUDA_VISIBLE_DEVICES"] == (
            envs["memory"]["CUDA_VISIBLE_DEVICES"]
        )


class TestReplayLevelDivergence:
    """Identical seeded traces through full deployments."""

    @pytest.fixture(scope="class", params=[False, True],
                    ids=["stock", "resilient"])
    def results(self, request):
        resilient = request.param
        _, pid_result = replay("pid", resilient)
        _, mem_result = replay("memory", resilient)
        return pid_result, mem_result

    def test_same_jobs_ran_under_both(self, results):
        pid_result, mem_result = results
        assert len(pid_result.jobs) == len(mem_result.jobs)
        assert [j.entry.tool_id for j in pid_result.jobs] == [
            j.entry.tool_id for j in mem_result.jobs
        ]
        assert [j.gpu_enabled for j in pid_result.jobs] == [
            j.gpu_enabled for j in mem_result.jobs
        ]

    def test_pid_scatters_under_contention(self, results):
        pid_result, _ = results
        assert pid_result.scattered_jobs >= 1

    def test_memory_never_scatters(self, results):
        _, mem_result = results
        assert mem_result.scattered_jobs == 0
        assert all(j.spread <= 1 for j in mem_result.jobs)

    def test_placements_diverge(self, results):
        pid_result, mem_result = results
        pid_placements = [j.gpu_ids for j in pid_result.jobs]
        mem_placements = [j.gpu_ids for j in mem_result.jobs]
        assert pid_placements != mem_placements

    def test_divergence_is_identical_across_deployment_modes(self):
        # The resilience stack (with no faults firing) must not change
        # either strategy's placements — parity between stock and
        # resilient runs, per strategy.
        for allocation in ("pid", "memory"):
            _, stock = replay(allocation, resilient=False)
            _, resilient = replay(allocation, resilient=True)
            assert [j.gpu_ids for j in stock.jobs] == [
                j.gpu_ids for j in resilient.jobs
            ]
