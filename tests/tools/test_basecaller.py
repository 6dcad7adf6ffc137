"""End-to-end basecaller: accuracy, segmentation, CPU/GPU equality."""

import numpy as np
import pytest

from repro.gpusim.kernels import KernelTimingModel
from repro.gpusim.profiler import CudaProfiler
from repro.tools.bonito.basecaller import Basecaller
from repro.tools.bonito.signal import SquiggleSimulator
from repro.tools.seqio.records import SignalRead
from repro.workloads.generator import simulate_genome


@pytest.fixture
def basecaller(pore_model):
    return Basecaller(pore_model)


def read_for(pore_model, sequence, seed=1, **simulator_kwargs) -> SignalRead:
    simulator = SquiggleSimulator(pore_model, **simulator_kwargs)
    return SignalRead(
        read_id="r", signal=simulator.synthesize(sequence, seed=seed),
        true_sequence=sequence,
    )


class TestCleanSignal:
    def test_near_perfect_on_clean_signal(self, pore_model, basecaller):
        sequence = simulate_genome(200, seed=5)
        read = read_for(pore_model, sequence, dwell_jitter=0, noise_sd_pa=0.0)
        result = basecaller.basecall([read])
        assert result.mean_identity >= 0.95

    def test_known_small_sequence(self, pore_model, basecaller):
        sequence = "ACGTACCGTTAGCATGC"
        read = read_for(pore_model, sequence, dwell_jitter=0, noise_sd_pa=0.0)
        record, _, _ = basecaller.basecall_read(read)
        # homopolymer runs may compress by one base; nothing else
        assert abs(len(record.sequence) - len(sequence)) <= 2


class TestRealisticSignal:
    def test_accuracy_on_noisy_variable_dwell(self, pore_model, basecaller, squiggle_reads):
        result = basecaller.basecall(list(squiggle_reads))
        assert result.mean_identity >= 0.78  # nanopore-class accuracy
        assert result.total_events > 0
        assert result.total_samples == sum(len(r) for r in squiggle_reads)

    def test_deterministic(self, pore_model, basecaller, squiggle_reads):
        first = basecaller.basecall(list(squiggle_reads))
        second = basecaller.basecall(list(squiggle_reads))
        assert [r.sequence for r in first.records] == [
            r.sequence for r in second.records
        ]


class TestSegmentation:
    def test_event_count_tracks_bases(self, pore_model, basecaller):
        sequence = simulate_genome(150, seed=8)
        read = read_for(pore_model, sequence, dwell_jitter=0, noise_sd_pa=0.5)
        _, _, events = basecaller.basecall_read(read)
        assert 0.8 * len(sequence) <= events <= 1.2 * len(sequence)

    def test_empty_signal(self, basecaller):
        read = SignalRead(read_id="e", signal=np.empty(0, dtype=np.float32))
        record, _, events = basecaller.basecall_read(read)
        assert record.sequence == "" and events == 0

    def test_tiny_signal_single_event(self, basecaller):
        read = SignalRead(read_id="t", signal=np.full(3, 80.0, dtype=np.float32))
        record, _, events = basecaller.basecall_read(read)
        assert events == 1
        assert len(record.sequence) == 1


class TestGpuPath:
    def test_gpu_and_cpu_basecalls_identical(self, pore_model, squiggle_reads, host):
        cpu_result = Basecaller(pore_model).basecall(list(squiggle_reads))
        proc = host.launch_process("/usr/bin/bonito", cuda_visible_devices="0")
        timing = KernelTimingModel(
            host, host.device(0), profiler=CudaProfiler(), pid=proc.pid
        )
        gpu_result = Basecaller(pore_model, timing=timing).basecall(
            list(squiggle_reads)
        )
        assert [r.sequence for r in gpu_result.records] == [
            r.sequence for r in cpu_result.records
        ]

    def test_gpu_path_charges_device(self, pore_model, squiggle_reads, host):
        profiler = CudaProfiler()
        timing = KernelTimingModel(host, host.device(0), profiler=profiler)
        Basecaller(pore_model, timing=timing).basecall(list(squiggle_reads))
        names = {h.name for h in profiler.hotspots()}
        assert "sgemm_template_match" in names
        assert "cudnn_conv1d_fwd" in names
        assert host.clock.now > 0

