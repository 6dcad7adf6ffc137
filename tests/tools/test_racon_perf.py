"""Racon performance model against the paper's anchors."""

import pytest

from repro.tools.racon.perf_model import RaconPerfModel
from repro.workloads.datasets import GIB, DatasetDescriptor

#: The §VI-A NFL dataset at half its size.
HALF_NFL = DatasetDescriptor(
    name="half_NFL",
    technology="pacbio",
    size_bytes=17 * GIB // 2,
    n_reads=3_000_000,
    mean_read_length=2_500,
    reference_length=45_000_000,
)


@pytest.fixture(scope="module")
def model():
    return RaconPerfModel()


class TestUnitModelFig3:
    def test_cpu_anchor(self, model):
        """Fig. 3: CPU-only at 4 threads took 3.22 s."""
        assert model.cpu_unit_time(4) == pytest.approx(3.22, abs=0.01)

    def test_gpu_unbanded_anchor(self, model):
        """Fig. 3: best GPU config was 4 threads / 1 batch at 1.72 s."""
        threads, batches, seconds = model.best_gpu_config(banded=False)
        assert (threads, batches) == (4, 1)
        assert seconds == pytest.approx(1.72, abs=0.01)

    def test_gpu_banded_anchor(self, model):
        """Fig. 3: banded best was 4 threads / 16 batches at 1.67 s."""
        threads, batches, seconds = model.best_gpu_config(banded=True)
        assert (threads, batches) == (4, 16)
        assert seconds == pytest.approx(1.67, abs=0.01)

    def test_gpu_roughly_2x_cpu(self, model):
        cpu = model.cpu_unit_time(4)
        gpu = model.gpu_unit_time(4, 1)
        assert 1.6 <= cpu / gpu <= 2.2

    def test_cpu_time_decreases_with_threads(self, model):
        times = [model.cpu_unit_time(t) for t in (1, 2, 4, 8)]
        assert times == sorted(times, reverse=True)

    def test_thread_validation(self, model):
        with pytest.raises(ValueError):
            model.cpu_unit_time(0)
        with pytest.raises(ValueError):
            model.gpu_unit_time(4, batches=0)


class TestUnitModelFig7:
    def test_container_unbanded_best_config(self, model):
        """Fig. 7: containerized unbanded best at 2 threads / 4 batches."""
        threads, batches, _ = model.best_gpu_config(banded=False, containerized=True)
        assert (threads, batches) == (2, 4)

    def test_container_banded_best_config(self, model):
        """Fig. 7: containerized banded best at 2 threads / 8 batches."""
        threads, batches, _ = model.best_gpu_config(banded=True, containerized=True)
        assert (threads, batches) == (2, 8)

    def test_container_overhead_near_paper(self, model):
        """§VI-B: ~0.6 s (~36 %) container launching overhead."""
        _, _, bare = model.best_gpu_config(banded=True)
        threads, batches, containerized = model.best_gpu_config(
            banded=True, containerized=True
        )
        overhead = containerized - model.gpu_unit_compute_time(
            threads, batches, True, True
        )
        assert overhead == pytest.approx(0.61, abs=0.02)
        fraction = overhead / model.gpu_unit_compute_time(threads, batches, True, True)
        assert 0.30 <= fraction <= 0.40


class TestEndToEndSection6A:
    def test_cpu_end_to_end_410s(self, model):
        timing = model.cpu_end_to_end()
        assert timing.total_seconds == pytest.approx(410.0, abs=1.0)
        assert timing.breakdown["polish"] == pytest.approx(117.0, abs=0.5)

    def test_gpu_end_to_end_200s(self, model):
        timing = model.gpu_end_to_end()
        assert timing.total_seconds == pytest.approx(200.0, abs=1.0)
        assert timing.breakdown["gpu_alloc"] == pytest.approx(2.0)
        assert timing.breakdown["gpu_kernels"] == pytest.approx(13.0)
        assert timing.breakdown["cuda_api_overhead"] == pytest.approx(40.0)

    def test_polish_reduced_117_to_15(self, model):
        cpu_polish = model.cpu_end_to_end().breakdown["polish"]
        gpu = model.gpu_end_to_end().breakdown
        gpu_polish = gpu["gpu_alloc"] + gpu["gpu_kernels"] + gpu["cpu_tail"]
        assert cpu_polish == pytest.approx(117.0, abs=0.5)
        assert gpu_polish == pytest.approx(15.0, abs=0.2)

    def test_speedup_near_2x(self, model):
        assert model.speedup() == pytest.approx(2.05, abs=0.05)

    def test_scaling_with_dataset_size(self, model):
        assert model.cpu_end_to_end(HALF_NFL).total_seconds == pytest.approx(
            205.0, abs=1.0
        )
        # speedup roughly preserved under scaling (alloc is fixed)
        speedup = (model.cpu_end_to_end(HALF_NFL).total_seconds
                   / model.gpu_end_to_end(HALF_NFL).total_seconds)
        assert speedup == pytest.approx(2.05, abs=0.15)

    def test_banded_shrinks_kernels_only(self, model):
        plain = model.gpu_end_to_end(banded=False)
        banded = model.gpu_end_to_end(banded=True)
        assert banded.breakdown["gpu_kernels"] < plain.breakdown["gpu_kernels"]
        assert banded.breakdown["pipeline"] == plain.breakdown["pipeline"]
