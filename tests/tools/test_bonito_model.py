"""Conv-as-GEMM layers and template scoring."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.tools.bonito.model import Conv1dLayer, TemplateScorer, im2col


class TestIm2col:
    def test_frame_count_and_content(self):
        signal = np.arange(10, dtype=np.float32)
        patches = im2col(signal, window=4)
        assert patches.shape == (7, 4)
        assert np.array_equal(patches[0], [0, 1, 2, 3])
        assert np.array_equal(patches[1], [1, 2, 3, 4])

    def test_too_short_signal_empty(self):
        assert im2col(np.zeros(2), window=4).shape == (0, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            im2col(np.zeros(10), window=0)

    @given(n=st.integers(4, 100), window=st.integers(1, 4))
    def test_shape_formula(self, n, window):
        patches = im2col(np.zeros(n, dtype=np.float32), window)
        assert patches.shape == (n - window + 1, window)


class TestConv1dLayer:
    def test_smoothing_filter_is_moving_average(self):
        layer = Conv1dLayer.smoothing(window=3)
        signal = np.array([0.0, 3.0, 6.0, 3.0, 0.0], dtype=np.float32)
        output, flops = layer.forward(signal)
        assert output.shape == (3, 1)
        assert np.allclose(output[:, 0], [3.0, 4.0, 3.0])
        assert flops == 2 * 3 * 3 * 1

    def test_multi_filter_output(self):
        weights = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
        layer = Conv1dLayer(weights=weights, bias=np.array([0.0, 10.0]))
        output, _ = layer.forward(np.array([1.0, 2.0, 3.0], dtype=np.float32))
        assert np.allclose(output, [[1.0, 12.0], [2.0, 13.0]])

    def test_validation(self):
        with pytest.raises(ValueError):
            Conv1dLayer(weights=np.zeros(3), bias=np.zeros(1))
        with pytest.raises(ValueError):
            Conv1dLayer(weights=np.zeros((2, 3)), bias=np.zeros(3))


class TestTemplateScorer:
    def test_scores_equal_negative_squared_distance(self, pore_model):
        scorer = TemplateScorer(pore_model)
        means = np.array([70.0, 100.0], dtype=np.float32)
        scores, _ = scorer.score(means)
        expected = -((means[:, None] - pore_model.levels[None, :]) ** 2)
        assert np.allclose(scores, expected, atol=1e-2)

    def test_argmax_recovers_exact_level(self, pore_model):
        scorer = TemplateScorer(pore_model)
        for index in (0, 17, 63):
            means = np.array([pore_model.levels[index]])
            scores, _ = scorer.score(means)
            assert int(np.argmax(scores[0])) == index

    def test_flops_counted(self, pore_model):
        scorer = TemplateScorer(pore_model)
        _, flops = scorer.score(np.zeros(10, dtype=np.float32))
        assert flops == 2 * 10 * 3 * 64
