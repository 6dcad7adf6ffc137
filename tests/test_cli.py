"""Command-line interface."""

import pytest

from repro.cli import main


class TestInfoAndSmi:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Tesla K80" in out
        assert "racon" in out and "bonito" in out
        assert "455.45.01" in out

    def test_smi(self, capsys):
        assert main(["smi"]) == 0
        out = capsys.readouterr().out
        assert "NVIDIA-SMI" in out
        assert "No running processes found" in out

    def test_smi_demo_shows_process(self, capsys):
        assert main(["smi", "--demo"]) == 0
        assert "racon_gpu" in capsys.readouterr().out


class TestToolCommands:
    def test_racon_unit(self, capsys):
        assert main(["racon", "--threads", "4", "--batches", "16", "--banded"]) == 0
        out = capsys.readouterr().out
        assert "racon_gpu -t 4 --cudapoa-batches 16 -b" in out
        assert "local_gpu" in out
        assert "1.670" in out

    def test_racon_dataset(self, capsys):
        assert main(["racon", "--workload", "dataset", "--dataset",
                     "Alzheimers_NFL"]) == 0
        out = capsys.readouterr().out
        assert "gpu_kernels" in out

    def test_racon_container(self, capsys):
        assert main(["racon", "--container"]) == 0
        assert "docker_gpu" in capsys.readouterr().out

    def test_bonito_dataset(self, capsys):
        assert main(["bonito"]) == 0
        out = capsys.readouterr().out
        assert "bonito basecaller" in out
        assert "h (virtual)" in out

    def test_unknown_dataset_fails(self, capsys):
        assert main(["racon", "--workload", "dataset", "--dataset", "nope"]) == 1


class TestCasesAndExperiments:
    def test_cases_all(self, capsys):
        assert main(["cases"]) == 0
        out = capsys.readouterr().out
        for case in ("Case 1", "Case 2", "Case 3", "Case 4"):
            assert case in out
        assert out.count("NVIDIA-SMI") == 4

    def test_cases_leaves_sys_path_alone(self, capsys):
        import sys

        before = list(sys.path)
        assert main(["cases"]) == 0
        assert main(["cases"]) == 0
        capsys.readouterr()
        assert sys.path == before

    def test_single_case(self, capsys):
        assert main(["cases", "--case", "3"]) == 0
        out = capsys.readouterr().out
        assert "Case 3" in out and "Case 1" not in out

    @pytest.mark.parametrize("name,needle", [
        ("fig3", "3.22"),
        ("fig5", "Acinetobacter_pittii"),
        ("e11", "speedup: 2.0"),
        ("stalls", "memory_dependency"),
    ])
    def test_experiments(self, capsys, name, needle):
        assert main(["experiment", name]) == 0
        assert needle in capsys.readouterr().out

    def test_bad_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])

    def test_no_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestTraceCommand:
    def test_trace_replay(self, capsys):
        from repro.cli import main

        assert main(["trace", "--jobs", "10", "--interarrival", "1.0",
                     "--allocation", "memory"]) == 0
        out = capsys.readouterr().out
        assert "mean completion time" in out
        assert "scattered jobs:       0" in out

    def test_trace_wait_policy(self, capsys):
        from repro.cli import main

        assert main(["trace", "--jobs", "10", "--interarrival", "0.5",
                     "--policy", "wait"]) == 0
        out = capsys.readouterr().out
        assert "peak sharing per GPU: {'0': 1, '1': 1}" in out


class TestMonitorDump:
    def test_dump_writes_files(self, tmp_path):
        from repro import build_deployment, register_paper_tools

        deployment = build_deployment()
        register_paper_tools(deployment.app)
        job = deployment.run_tool("racon", {"workload": "unit"})
        paths = deployment.monitor.dump(job.job_id, tmp_path)
        assert len(paths) == 2
        csv_text = (tmp_path / f"job_{job.job_id}.csv").read_text()
        assert csv_text.startswith("time,device")
        stats_text = (tmp_path / f"job_{job.job_id}_stats.txt").read_text()
        assert "GPU 0" in stats_text


class TestTopoCommand:
    def test_topology_matrix(self, capsys):
        from repro.cli import main

        assert main(["topo", "--boards", "2"]) == 0
        out = capsys.readouterr().out
        assert "PIX" in out and "PHB" in out and "GPU3" in out


class TestFleet:
    ARGV = ["fleet", "--jobs", "3000", "--nodes", "6", "--gpus-per-node", "2",
            "--queue-limit", "4", "--storm"]

    @pytest.fixture
    def days(self, monkeypatch):
        """Every day ``repro fleet`` generates."""
        import repro.workloads.diurnal as diurnal

        seen = []
        generate = diurnal.diurnal_batches

        def counted_generate(profile):
            seen.append(generate(profile))
            return seen[-1]

        monkeypatch.setattr(diurnal, "diurnal_batches", counted_generate)
        return seen

    def test_check_parity_generates_the_day_once(self, days, capsys):
        assert main([*self.ARGV, "--ab", "--check-parity"]) == 0
        assert "bit-identical" in capsys.readouterr().out
        assert len(days) == 1  # three policies, two models, one day
