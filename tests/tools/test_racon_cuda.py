"""CUDA POA batcher: result equality with CPU, device accounting."""

import pytest

from repro.gpusim.kernels import KernelTimingModel
from repro.gpusim.profiler import CudaProfiler
from repro.tools.racon.consensus import RaconPolisher
from repro.tools.racon.cuda import CudaPOABatcher


@pytest.fixture
def gpu_setup(host):
    proc = host.launch_process("/usr/bin/racon_gpu", cuda_visible_devices="0")
    profiler = CudaProfiler()
    timing = KernelTimingModel(host, host.device(0), profiler=profiler, pid=proc.pid)
    return timing, profiler


class TestResultEquality:
    def test_gpu_consensus_bit_identical_to_cpu(self, gpu_setup, small_polish_inputs):
        timing, _ = gpu_setup
        backbone, reads, mappings = small_polish_inputs
        polisher = RaconPolisher(window_length=200)
        cpu = polisher.polish(backbone, reads, mappings)
        gpu = polisher.polish(
            backbone, reads, mappings,
            window_processor=CudaPOABatcher(timing, batches=4),
        )
        assert gpu.polished.sequence == cpu.polished.sequence

    @pytest.mark.parametrize("batches", [1, 2, 8])
    def test_batch_count_does_not_change_results(
        self, gpu_setup, small_polish_inputs, batches
    ):
        timing, _ = gpu_setup
        backbone, reads, mappings = small_polish_inputs
        polisher = RaconPolisher(window_length=200)
        reference = polisher.polish(backbone, reads, mappings).polished.sequence
        gpu = polisher.polish(
            backbone, reads, mappings,
            window_processor=CudaPOABatcher(timing, batches=batches),
        )
        assert gpu.polished.sequence == reference

    def test_banded_flag_changes_accounting_not_result(
        self, gpu_setup, small_polish_inputs
    ):
        timing, _ = gpu_setup
        backbone, reads, mappings = small_polish_inputs
        polisher = RaconPolisher(window_length=200)
        plain = CudaPOABatcher(timing, batches=2, banded=False)
        polisher.polish(backbone, reads, mappings, window_processor=plain)
        banded = CudaPOABatcher(timing, batches=2, banded=True)
        result = polisher.polish(backbone, reads, mappings, window_processor=banded)
        unbanded_cells = sum(b.cells for b in plain.stats.batches)
        banded_cells = sum(b.cells for b in banded.stats.batches)
        assert banded_cells < unbanded_cells
        assert result.polished.sequence  # still a full consensus


class TestDeviceAccounting:
    def test_kernel_mix_matches_fig4_names(self, gpu_setup, small_polish_inputs):
        timing, profiler = gpu_setup
        backbone, reads, mappings = small_polish_inputs
        RaconPolisher(window_length=200).polish(
            backbone, reads, mappings,
            window_processor=CudaPOABatcher(timing, batches=3),
        )
        names = {h.name for h in profiler.hotspots()}
        assert {"generatePOAKernel", "generateConsensusKernel",
                "cudaMemcpyHtoD", "cudaMemcpyDtoH", "cudaStreamSynchronize",
                "cudaMalloc"} <= names

    def test_memory_allocated_then_freed(self, gpu_setup, small_polish_inputs):
        timing, _ = gpu_setup
        backbone, reads, mappings = small_polish_inputs
        used_before = timing.device.memory.used
        RaconPolisher(window_length=200).polish(
            backbone, reads, mappings,
            window_processor=CudaPOABatcher(timing, batches=2),
        )
        assert timing.device.memory.used == used_before

    def test_stats_track_all_windows(self, gpu_setup, small_polish_inputs):
        timing, _ = gpu_setup
        backbone, reads, mappings = small_polish_inputs
        polisher = RaconPolisher(window_length=200)
        batcher = CudaPOABatcher(timing, batches=4)
        result = polisher.polish(
            backbone, reads, mappings, window_processor=batcher
        )
        assert batcher.stats.windows_on_gpu == result.windows_polished
        assert len(batcher.stats.batches) <= 4
        assert batcher.stats.kernel_seconds > 0
        assert batcher.stats.alloc_seconds > 0

    def test_clock_advances_monotonically(self, gpu_setup, small_polish_inputs, host):
        timing, _ = gpu_setup
        backbone, reads, mappings = small_polish_inputs
        before = host.clock.now
        RaconPolisher(window_length=200).polish(
            backbone, reads, mappings,
            window_processor=CudaPOABatcher(timing, batches=2),
        )
        assert host.clock.now > before

    def test_invalid_batches(self, gpu_setup):
        timing, _ = gpu_setup
        with pytest.raises(ValueError):
            CudaPOABatcher(timing, batches=0)

    def test_empty_window_list(self, gpu_setup):
        timing, _ = gpu_setup
        batcher = CudaPOABatcher(timing, batches=2)
        assert batcher([], RaconPolisher()) == []
