"""Tests for fine-tuning, the high-level AimTS model and checkpointing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import AimTS, AimTSConfig, FineTuneConfig, FineTuner
from repro.data import load_pretraining_corpus
from repro.encoders import TSEncoder


@pytest.fixture(scope="module")
def pretrained_model():
    """One small pre-trained AimTS model shared by the model-level tests."""
    config = AimTSConfig(
        repr_dim=16,
        proj_dim=8,
        hidden_channels=8,
        depth=2,
        panel_size=16,
        series_length=48,
        batch_size=8,
        epochs=1,
        seed=0,
    )
    model = AimTS(config)
    corpus = load_pretraining_corpus("monash", n_datasets=3, seed=0)
    model.pretrain(corpus, max_samples=24)
    return model


class TestFineTuner:
    def test_learns_small_dataset(self, small_dataset):
        encoder = TSEncoder(hidden_channels=8, repr_dim=16, depth=2, rng=0)
        finetuner = FineTuner(encoder, small_dataset.n_classes, FineTuneConfig(epochs=15, seed=0))
        result = finetuner.fit_and_evaluate(small_dataset)
        assert result.accuracy > 0.6
        assert result.train_accuracy >= result.accuracy - 0.3
        assert len(result.history) == 15
        assert result.fit_seconds > 0

    def test_predict_shapes_and_labels(self, small_dataset):
        encoder = TSEncoder(hidden_channels=8, repr_dim=16, depth=1, rng=0)
        finetuner = FineTuner(encoder, small_dataset.n_classes, FineTuneConfig(epochs=2, seed=0))
        finetuner.fit(small_dataset.train)
        predictions = finetuner.predict(small_dataset.test.X)
        assert predictions.shape == (len(small_dataset.test),)
        assert set(np.unique(predictions)).issubset(set(range(small_dataset.n_classes)))

    def test_frozen_encoder_leaves_weights_unchanged(self, small_dataset):
        encoder = TSEncoder(hidden_channels=8, repr_dim=16, depth=1, rng=0)
        before = {k: v.copy() for k, v in encoder.state_dict().items()}
        config = FineTuneConfig(epochs=3, freeze_encoder=True, seed=0)
        FineTuner(encoder, small_dataset.n_classes, config).fit(small_dataset.train)
        after = encoder.state_dict()
        for key in before:
            np.testing.assert_array_equal(before[key], after[key])

    def test_unfrozen_encoder_weights_change(self, small_dataset):
        encoder = TSEncoder(hidden_channels=8, repr_dim=16, depth=1, rng=0)
        before = encoder.state_dict()["input_conv.weight"].copy()
        FineTuner(encoder, small_dataset.n_classes, FineTuneConfig(epochs=3, seed=0)).fit(small_dataset.train)
        assert not np.allclose(before, encoder.state_dict()["input_conv.weight"])

    def test_requires_labels(self, small_dataset, rng):
        from repro.data.dataset import DatasetSplit

        encoder = TSEncoder(hidden_channels=8, repr_dim=16, depth=1, rng=0)
        finetuner = FineTuner(encoder, 2, FineTuneConfig(epochs=1))
        with pytest.raises(ValueError):
            finetuner.fit(DatasetSplit(rng.normal(size=(4, 1, 48))))
        with pytest.raises(ValueError):
            finetuner.score(DatasetSplit(rng.normal(size=(4, 1, 48))))


class TestAimTSModel:
    def test_pretrain_sets_flag_and_history(self, pretrained_model):
        assert pretrained_model.is_pretrained
        assert len(pretrained_model.pretrainer.history.total_loss) >= 1

    def test_fine_tune_beats_chance(self, pretrained_model, small_dataset):
        result = pretrained_model.fine_tune(
            small_dataset, FineTuneConfig(epochs=20, learning_rate=3e-3, seed=0)
        )
        assert result.accuracy > 0.6

    def test_fine_tune_multivariate(self, pretrained_model, small_multivariate_dataset):
        result = pretrained_model.fine_tune(small_multivariate_dataset, FineTuneConfig(epochs=8, seed=0))
        assert 0.0 <= result.accuracy <= 1.0

    def test_fine_tune_does_not_mutate_pretrained_encoder(self, pretrained_model, small_dataset):
        before = pretrained_model.pretrainer.ts_encoder.state_dict()["input_conv.weight"].copy()
        pretrained_model.fine_tune(small_dataset, FineTuneConfig(epochs=2, seed=0))
        after = pretrained_model.pretrainer.ts_encoder.state_dict()["input_conv.weight"]
        np.testing.assert_array_equal(before, after)

    def test_few_shot_ratio_uses_fewer_samples(self, pretrained_model, small_dataset):
        result = pretrained_model.fine_tune(
            small_dataset, FineTuneConfig(epochs=2, seed=0), label_ratio=0.25
        )
        assert 0.0 <= result.accuracy <= 1.0

    def test_encode_returns_repr_dim(self, pretrained_model, small_dataset):
        representations = pretrained_model.encode(small_dataset.test.X[:5])
        assert representations.shape == (5, pretrained_model.config.repr_dim)

    def test_save_and_load_roundtrip(self, pretrained_model, tmp_path):
        path = pretrained_model.save(tmp_path / "aimts")
        fresh = AimTS(pretrained_model.config)
        assert not fresh.is_pretrained
        fresh.load(path)
        assert fresh.is_pretrained
        original = pretrained_model.pretrainer.ts_encoder.state_dict()
        loaded = fresh.pretrainer.ts_encoder.state_dict()
        for key in original:
            np.testing.assert_array_equal(original[key], loaded[key])

    def test_loaded_model_produces_identical_representations(self, pretrained_model, tmp_path, small_dataset):
        path = pretrained_model.save(tmp_path / "aimts2")
        fresh = AimTS(pretrained_model.config).load(path)
        X = small_dataset.test.X[:4]
        np.testing.assert_allclose(pretrained_model.encode(X), fresh.encode(X), atol=1e-12)
