"""Bonito subcommands: download / convert / train / evaluate."""

import numpy as np
import pytest

from repro.tools.bonito.commands import (
    PRETRAINED_MODELS,
    bonito_convert,
    bonito_download,
    bonito_evaluate,
    bonito_train,
)
from repro.tools.bonito.signal import PoreModel, SquiggleSimulator
from repro.tools.seqio.records import SignalRead
from repro.workloads.generator import simulate_genome


class TestDownload:
    def test_known_models(self):
        for name in PRETRAINED_MODELS:
            model = bonito_download(name)
            assert model.n_kmers == 4 ** model.k

    def test_deterministic(self):
        a = bonito_download("dna_r9.4.1")
        b = bonito_download("dna_r9.4.1")
        assert (a.levels == b.levels).all()

    def test_different_chemistries_differ(self):
        r9 = bonito_download("dna_r9.4.1")
        r10 = bonito_download("dna_r10.3")
        assert not np.allclose(r9.levels, r10.levels)

    def test_unknown_model(self):
        with pytest.raises(KeyError, match="dna_r9"):
            bonito_download("dna_r99")


class TestConvert:
    def test_roundtrip(self, pore_model, squiggle_reads):
        chunks = bonito_convert(list(squiggle_reads))
        assert len(chunks) == len(squiggle_reads)
        assert chunks.signals.shape[1] == max(len(r) for r in squiggle_reads)
        for i, original in enumerate(squiggle_reads):
            assert chunks.read_ids[i] == original.read_id
            assert chunks.references[i] == original.true_sequence
            assert chunks.lengths[i] == len(original)
            assert np.allclose(chunks.signals[i, : len(original)], original.signal)

    def test_padding_zeroed(self, squiggle_reads):
        chunks = bonito_convert(list(squiggle_reads))
        for i, read in enumerate(squiggle_reads):
            assert (chunks.signals[i, len(read):] == 0).all()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bonito_convert([])

    def test_unlabelled_rejected(self):
        read = SignalRead(read_id="u", signal=np.zeros(10))
        with pytest.raises(ValueError, match="ground truth"):
            bonito_convert([read])


class TestTrain:
    @pytest.fixture(scope="class")
    def training_reads(self, pore_model):
        simulator = SquiggleSimulator(
            pore_model, samples_per_base=8, dwell_jitter=0, noise_sd_pa=0.6
        )
        genome = simulate_genome(3000, seed=17)
        return simulator.simulate_reads(genome, n_reads=30, mean_length=400, seed=3)

    @pytest.fixture(scope="class")
    def training_data(self, training_reads):
        return bonito_convert(training_reads)

    def test_repairs_miscalibrated_model(self, pore_model, training_data):
        """Start from a drifted model; training must pull the levels back
        toward the generating truth."""
        drifted = PoreModel(k=3, seed=0)
        rng = np.random.default_rng(5)
        drifted.levels = (
            pore_model.levels + rng.normal(0, 4.0, pore_model.n_kmers)
        ).astype(np.float32)
        trained, training = bonito_train(
            drifted, training_data, epochs=3, reference_model=pore_model
        )
        assert training.level_rmse_after < training.level_rmse_before * 0.6
        assert training.kmers_observed > 50  # nearly all 64 k-mers seen

    def test_training_improves_basecall_accuracy(
        self, pore_model, training_reads, training_data
    ):
        drifted = PoreModel(k=3, seed=0)
        rng = np.random.default_rng(6)
        drifted.levels = (
            pore_model.levels + rng.normal(0, 4.0, pore_model.n_kmers)
        ).astype(np.float32)
        eval_reads = training_reads[:8]
        before = bonito_evaluate(drifted, eval_reads).mean_identity
        trained, _ = bonito_train(drifted, training_data, reference_model=pore_model)
        after = bonito_evaluate(trained, eval_reads).mean_identity
        assert after > before

    def test_input_model_untouched(self, pore_model, training_data):
        levels_before = pore_model.levels.copy()
        bonito_train(pore_model, training_data, epochs=1)
        assert (pore_model.levels == levels_before).all()

    def test_history_monotone_on_easy_data(self, pore_model, training_data):
        drifted = PoreModel(k=3, seed=0)
        drifted.levels = (pore_model.levels + 3.0).astype(np.float32)
        _, training = bonito_train(
            drifted, training_data, epochs=4, reference_model=pore_model
        )
        assert training.history[-1] <= training.history[0]
        assert len(training.history) == 5

    def test_validation(self, pore_model, training_data):
        with pytest.raises(ValueError):
            bonito_train(pore_model, training_data, epochs=0)
        with pytest.raises(ValueError):
            bonito_train(pore_model, training_data, learning_rate=0.0)


class TestEvaluate:
    def test_matched_model_scores_high(self, pore_model, squiggle_reads):
        result = bonito_evaluate(pore_model, list(squiggle_reads))
        assert result.reads == len(squiggle_reads)
        assert result.mean_identity > 0.75
        assert 0 <= result.min_identity <= result.median_identity <= 1.0
        assert len(result.per_read) == result.reads

    def test_wrong_model_scores_lower(self, pore_model, squiggle_reads):
        wrong = bonito_download("dna_r10.3")
        matched = bonito_evaluate(pore_model, list(squiggle_reads)).mean_identity
        mismatched = bonito_evaluate(wrong, list(squiggle_reads)).mean_identity
        assert mismatched < matched

    def test_unlabelled_rejected(self):
        read = SignalRead(read_id="u", signal=np.zeros(10))
        with pytest.raises(ValueError):
            bonito_evaluate(bonito_download("dna_r9.4.1"), [read])
