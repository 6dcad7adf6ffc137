"""Network building blocks: conv-as-GEMM layers and template scoring.

Bonito is "inspired by the usage of convolutional neural networks in
speech recognition" (paper §V-A); its GPU hotspots are GEMM kernels
(Fig. 6) because convolutions lower to im2col + matrix multiply.  We
implement exactly that lowering.  Instead of *trained* weights — no
training data can ship offline — the network's weights are constructed
analytically from the pore model (a matched-filter bank): the quadratic
score ``-(x - level)^2`` expands to an inner product of the feature
vector ``[x, x^2, 1]`` with the template ``[2*level, -1, -level^2]``, so
template matching over all k-mers is one dense ``(frames x 3) @
(3 x 4^k)`` GEMM.  The computation is numerically real; only its weights
come from analysis rather than SGD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.tools.bonito.signal import PoreModel


def im2col(signal: np.ndarray, window: int) -> np.ndarray:
    """Lower a 1-D signal to the (frames x window) patch matrix.

    This is the standard conv-to-GEMM lowering; frames are the sliding
    windows at stride 1.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    signal = np.asarray(signal, dtype=np.float32)
    n_frames = len(signal) - window + 1
    if n_frames <= 0:
        return np.empty((0, window), dtype=np.float32)
    strides = (signal.strides[0], signal.strides[0])
    return np.lib.stride_tricks.as_strided(
        signal, shape=(n_frames, window), strides=strides, writeable=False
    )


@dataclass
class Conv1dLayer:
    """A 1-D convolution realised as im2col + GEMM, at frame stride 1.

    Attributes
    ----------
    weights:
        (out_channels x window) filter bank.
    bias:
        (out_channels,) bias added after the multiply.
    """

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float32)
        self.bias = np.asarray(self.bias, dtype=np.float32)
        if self.weights.ndim != 2:
            raise ValueError("weights must be (out_channels, window)")
        if self.bias.shape != (self.weights.shape[0],):
            raise ValueError("bias must match out_channels")

    @property
    def window(self) -> int:
        """Filter width."""
        return int(self.weights.shape[1])

    @property
    def out_channels(self) -> int:
        """Number of filters."""
        return int(self.weights.shape[0])

    def forward(self, signal: np.ndarray) -> tuple[np.ndarray, int]:
        """Apply the layer; returns (frames x out_channels, flops).

        The FLOP count (2*m*n*k of the GEMM) is what the GPU execution
        path charges to the device.
        """
        patches = im2col(signal, self.window)
        output = patches @ self.weights.T + self.bias
        flops = 2 * patches.shape[0] * self.window * self.out_channels
        return output.astype(np.float32), int(flops)

    @classmethod
    def smoothing(cls, window: int = 3) -> "Conv1dLayer":
        """A single moving-average denoising filter."""
        return cls(
            weights=np.full((1, window), 1.0 / window, dtype=np.float32),
            bias=np.zeros(1, dtype=np.float32),
        )


class TemplateScorer:
    """Scores event features against all k-mer templates with one GEMM.

    ``scores[e, m] = -(mean_e - level_m)^2`` computed as
    ``features @ templates.T`` with ``features = [2*mean, -mean^2, -1]``
    and ``templates = [level, 1, level^2]``.
    """

    def __init__(self, pore: PoreModel) -> None:
        self.pore = pore
        levels = pore.levels.astype(np.float32)
        self.templates = np.stack(
            [levels, np.ones_like(levels), levels**2], axis=1
        )  # (n_kmers, 3)

    def features(self, event_means: np.ndarray) -> np.ndarray:
        """(events x 3) feature matrix for the scoring GEMM."""
        means = np.asarray(event_means, dtype=np.float32)
        return np.stack([2.0 * means, -(means**2), -np.ones_like(means)], axis=1)

    def score(self, event_means: np.ndarray) -> tuple[np.ndarray, int]:
        """(scores, flops): scores is (events x n_kmers), higher = better."""
        features = self.features(event_means)
        scores = features @ self.templates.T  # = -(mean - level)^2 + const
        flops = 2 * features.shape[0] * features.shape[1] * self.templates.shape[0]
        return scores.astype(np.float32), int(flops)
