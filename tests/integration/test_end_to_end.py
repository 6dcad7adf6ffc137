"""Whole-stack flows: submission through results, mirroring paper Fig. 2."""

import pytest

from repro.core.orchestrator import build_deployment
from repro.galaxy.job import JobState
from repro.tools.executors import register_paper_tools
from repro.tools.mapping import MinimizerMapper
from repro.tools.racon.alignment import identity


class TestFourStepFlow:
    def test_submit_map_run_collect(self, deployment):
        """Paper Fig. 2: submission -> runner mapping -> execution ->
        result collection."""
        job = deployment.app.submit("racon", {"threads": 4, "workload": "unit"})
        assert job.state is JobState.NEW
        destination = deployment.app.map_destination(job)
        assert destination.destination_id == "local_gpu"
        deployment.app.runner_for(destination).queue_job(job, destination)
        assert job.state is JobState.OK
        assert job.stdout

    def test_monitor_collects_during_tool_run(self, deployment):
        job = deployment.run_tool("racon", {"threads": 4, "workload": "unit"})
        session = deployment.monitor.session_for(job.job_id)
        assert session.stopped
        assert len(session.samples) >= 2
        csv = deployment.monitor.to_csv(job.job_id)
        assert csv.count("\n") == len(session.samples) + 1

    def test_full_paper_scale_comparison(self, deployment):
        """The headline §VI-A numbers through the full Galaxy stack."""
        gpu_job = deployment.run_tool(
            "racon", {"threads": 4, "workload": "dataset"}
        )
        cpu_only = build_deployment(
            node=__import__("repro.cluster.node", fromlist=["ComputeNode"]).ComputeNode.cpu_only()
        )
        register_paper_tools(cpu_only.app)
        cpu_job = cpu_only.run_tool("racon", {"threads": 4, "workload": "dataset"})
        speedup = cpu_job.metrics.runtime_seconds / gpu_job.metrics.runtime_seconds
        assert speedup == pytest.approx(2.05, abs=0.1)


class TestRealDataThroughTheStack:
    def test_polish_pipeline_with_real_mapper(self, deployment, small_read_set):
        """Generate reads, map them with the minimizer mapper, polish via
        the Galaxy job — the full Racon workflow on real (miniature) data."""
        from repro.workloads.generator import corrupted_backbone

        draft = corrupted_backbone(small_read_set, seed=6)
        mapper = MinimizerMapper(draft, k=13, w=5)
        mappings = mapper.map_reads(small_read_set.records)
        job = deployment.run_tool(
            "racon",
            {
                "workload": "payload",
                "window_length": 200,
                "payload": {
                    "backbone": draft,
                    "reads": small_read_set.records,
                    "mappings": mappings,
                },
            },
        )
        truth = small_read_set.genome.sequence
        assert identity(job.result.polished.sequence, truth) > identity(
            draft.sequence, truth
        )

    def test_basecall_then_polish_chain(self, deployment, pore_model):
        """Chain the two paper tools like a real pipeline: basecall
        squiggles, then use the calls as polishing reads."""
        from repro.tools.bonito.signal import SquiggleSimulator
        from repro.workloads.generator import simulate_genome, simulate_reads, corrupted_backbone

        genome = simulate_genome(1200, seed=33)
        simulator = SquiggleSimulator(pore_model, noise_sd_pa=0.8)
        signal_reads = simulator.simulate_reads(genome, n_reads=24, mean_length=280, seed=5)
        basecall_job = deployment.run_tool(
            "bonito",
            {"workload": "payload", "payload": {"pore": pore_model, "reads": signal_reads}},
        )
        called = basecall_job.result.records
        assert basecall_job.result.mean_identity > 0.75

        read_set = simulate_reads(genome, n_reads=1, mean_length=100, seed=1)
        draft = corrupted_backbone(read_set, seed=2, error_scale=1.5)
        mapper = MinimizerMapper(draft, k=11, w=5)
        mappings = mapper.map_reads(called)
        assert mappings, "basecalled reads failed to map back to the draft"
        polish_job = deployment.run_tool(
            "racon",
            {
                "workload": "payload",
                "window_length": 200,
                "payload": {"backbone": draft, "reads": called, "mappings": mappings},
            },
        )
        assert identity(polish_job.result.polished.sequence, genome) > identity(
            draft.sequence, genome
        )


class TestMonitorAcrossJobs:
    def test_per_job_sessions_isolated(self, deployment):
        job1 = deployment.run_tool("racon", {"workload": "unit"})
        job2 = deployment.run_tool("racon", {"workload": "unit", "batches": 16})
        s1 = deployment.monitor.session_for(job1.job_id)
        s2 = deployment.monitor.session_for(job2.job_id)
        assert s1.started_at < s2.started_at
        assert s1.stopped and s2.stopped
