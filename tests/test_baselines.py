"""Tests for the comparison baselines."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.baselines import (
    BaselineConfig,
    LinearClassifier,
    MiniRocket,
    MomentLike,
    Rocket,
    SimCLR,
    SupervisedCNN,
    TLoss,
    TNC,
    TS2Vec,
    TSTCC,
    UniTSLike,
)
from repro.core.config import FineTuneConfig
from repro.data import load_pretraining_corpus

CONTRASTIVE_BASELINES = [TS2Vec, TSTCC, TLoss, TNC, SimCLR]
FOUNDATION_BASELINES = [MomentLike, UniTSLike]


@pytest.fixture
def baseline_config():
    return BaselineConfig(
        repr_dim=12, proj_dim=6, hidden_channels=6, depth=1, series_length=48, batch_size=6, epochs=1, seed=0
    )


@pytest.fixture
def finetune_config():
    return FineTuneConfig(epochs=5, batch_size=8, classifier_hidden_dim=16, seed=0)


class TestBaselineConfig:
    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            BaselineConfig(repr_dim=0)
        with pytest.raises(ValueError):
            BaselineConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            BaselineConfig(kernel_size=0)
        with pytest.raises(ValueError):
            BaselineConfig(series_length=0)


def _loss_input(baseline, batch):
    """``batch`` as the loss receives it: through the produce stage."""
    return baseline.pipeline_produce(batch)


@pytest.mark.parametrize("baseline_cls", CONTRASTIVE_BASELINES + FOUNDATION_BASELINES)
class TestSelfSupervisedBaselines:
    def test_batch_loss_is_finite_scalar(self, baseline_cls, baseline_config, small_dataset):
        baseline = baseline_cls(baseline_config)
        loss = baseline.batch_loss(_loss_input(baseline, small_dataset.train.X[:6]))
        assert loss.size == 1
        assert np.isfinite(loss.item())

    def test_batch_loss_differentiable(self, baseline_cls, baseline_config, small_dataset):
        baseline = baseline_cls(baseline_config)
        baseline.batch_loss(_loss_input(baseline, small_dataset.train.X[:6])).backward()
        assert any(p.grad is not None for p in baseline.encoder.parameters())

    def test_batch_loss_draws_nothing_at_random(self, baseline_cls, baseline_config, small_dataset):
        # every random draw belongs to the produce stage: sharded workers
        # and respawned replicas recompute the loss of one produced batch
        baseline = baseline_cls(baseline_config)
        produced = _loss_input(baseline, small_dataset.train.X[:6])
        assert baseline.batch_loss(produced).item() == baseline.batch_loss(produced).item()

    def test_pretrain_returns_loss_curve(self, baseline_cls, baseline_config, small_dataset):
        baseline = baseline_cls(baseline_config)
        curve = baseline.pretrain(small_dataset.train.X, epochs=2)
        assert len(curve) == 2
        assert all(np.isfinite(v) for v in curve)

    def test_fine_tune_after_pretrain(self, baseline_cls, baseline_config, finetune_config, small_dataset):
        baseline = baseline_cls(baseline_config)
        baseline.pretrain(small_dataset.train.X, epochs=1)
        result = baseline.fine_tune(small_dataset, finetune_config)
        assert 0.0 <= result.accuracy <= 1.0

    def test_encode_shape(self, baseline_cls, baseline_config, small_dataset):
        baseline = baseline_cls(baseline_config)
        representations = baseline.encode(small_dataset.train.X[:5])
        assert representations.shape == (5, baseline_config.repr_dim)

    def test_fine_tune_does_not_mutate_pretrained_encoder(
        self, baseline_cls, baseline_config, finetune_config, small_dataset
    ):
        baseline = baseline_cls(baseline_config)
        before = baseline.encoder.state_dict()["input_conv.weight"].copy()
        baseline.fine_tune(small_dataset, finetune_config)
        np.testing.assert_array_equal(before, baseline.encoder.state_dict()["input_conv.weight"])


class TestMultiSourceBaselines:
    def test_pretrain_on_multi_source_corpus(self, baseline_config, finetune_config, small_dataset):
        corpus = load_pretraining_corpus("monash", n_datasets=2, seed=0)
        baseline = MomentLike(baseline_config)
        curve = baseline.pretrain(corpus, max_samples=12, epochs=1)
        assert len(curve) == 1
        result = baseline.fine_tune(small_dataset, finetune_config, label_ratio=0.5)
        assert 0.0 <= result.accuracy <= 1.0

    def test_units_combines_reconstruction_and_contrast(self, baseline_config, small_dataset):
        units = UniTSLike(baseline_config, contrastive_weight=0.5)
        moment = MomentLike(baseline_config)
        batch = small_dataset.train.X[:6]
        assert units.batch_loss(units.pipeline_produce(batch)).item() != pytest.approx(
            moment.batch_loss(moment.pipeline_produce(batch)).item()
        )

    def test_ts2vec_supports_multi_source_pretraining(self, baseline_config):
        corpus = load_pretraining_corpus("monash", n_datasets=2, seed=0)
        baseline = TS2Vec(baseline_config)
        curve = baseline.pretrain(corpus, max_samples=10, epochs=1)
        assert len(curve) == 1


class TestPretrainEpochs:
    def test_zero_epochs_trains_none(self, baseline_config, small_dataset):
        # epochs=0 is an explicit count, as for AimTS, not "use the default"
        baseline = TS2Vec(dataclasses.replace(baseline_config, epochs=2))
        assert baseline.pretrain(small_dataset.train.X, epochs=0) == []


class TestRocketFamily:
    def test_rocket_learns_separable_dataset(self, small_dataset):
        accuracy = Rocket(n_kernels=80, seed=0).fine_tune(small_dataset).accuracy
        assert accuracy > 0.7

    def test_minirocket_learns_separable_dataset(self, small_dataset):
        accuracy = MiniRocket(n_kernels=80, seed=0).fine_tune(small_dataset).accuracy
        assert accuracy > 0.7

    def test_rocket_multivariate(self, small_multivariate_dataset):
        accuracy = Rocket(n_kernels=60, seed=0).fine_tune(small_multivariate_dataset).accuracy
        assert accuracy > 1.0 / small_multivariate_dataset.n_classes

    def test_rocket_predict_before_fit_raises(self, small_dataset):
        with pytest.raises(RuntimeError):
            Rocket(n_kernels=10).predict(small_dataset.test.X)

    def test_rocket_feature_count(self, small_dataset):
        rocket = Rocket(n_kernels=16, seed=0)
        rocket._generate_kernels(small_dataset.length)
        features = rocket._transform(small_dataset.train.X[:3])
        assert features.shape == (3, 32)  # max + PPV per kernel

    def test_minirocket_uses_ppv_only(self, small_dataset):
        mini = MiniRocket(n_kernels=16, seed=0)
        mini._generate_kernels(small_dataset.length)
        features = mini._transform(small_dataset.train.X[:3])
        assert features.shape == (3, 16)
        assert np.all((features >= 0) & (features <= 1))

    def test_rocket_deterministic_given_seed(self, small_dataset):
        a = Rocket(n_kernels=40, seed=1).fine_tune(small_dataset).accuracy
        b = Rocket(n_kernels=40, seed=1).fine_tune(small_dataset).accuracy
        assert a == pytest.approx(b)

    def test_refit_after_fine_tune_clears_stale_label_map(
        self, small_dataset, small_multivariate_dataset
    ):
        """A direct re-fit on a task with more classes must not keep the old map."""
        rocket = Rocket(n_kernels=16, seed=0)
        rocket.fine_tune(small_dataset)  # 2 classes
        rocket.fit(small_multivariate_dataset.train.X, small_multivariate_dataset.train.y)
        predictions = rocket.predict(small_multivariate_dataset.test.X)  # 3 classes
        assert predictions.max() < small_multivariate_dataset.n_classes

        linear = LinearClassifier()
        linear.fine_tune(small_dataset)
        linear.fit(small_multivariate_dataset.train.X, small_multivariate_dataset.train.y)
        predictions = linear.predict(small_multivariate_dataset.test.X)
        assert predictions.max() < small_multivariate_dataset.n_classes

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Rocket(n_kernels=0)
        with pytest.raises(ValueError):
            LinearClassifier(ridge=0.0)


class TestSupervisedBaselines:
    def test_supervised_cnn_learns(self, small_dataset):
        accuracy = SupervisedCNN(epochs=15, hidden_channels=8, repr_dim=16, seed=0).fine_tune(small_dataset).accuracy
        assert accuracy > 0.6

    def test_linear_classifier_learns(self, small_dataset):
        accuracy = LinearClassifier().fine_tune(small_dataset).accuracy
        assert accuracy > 0.6

    def test_linear_classifier_predict_before_fit(self, small_dataset):
        with pytest.raises(RuntimeError):
            LinearClassifier().predict(small_dataset.test.X)

    def test_linear_classifier_multiclass(self, small_multivariate_dataset):
        accuracy = LinearClassifier().fine_tune(small_multivariate_dataset).accuracy
        assert accuracy > 1.0 / small_multivariate_dataset.n_classes
