"""Tests for the AimTS pre-training loop."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import AimTSConfig
from repro.core.pretrainer import AimTSPretrainer, _PretrainLoop, build_augmentation_bank
from repro.data import load_pretraining_corpus
from repro.utils.seeding import new_rng


def _tiny_config(**overrides):
    base = dict(
        repr_dim=12,
        proj_dim=6,
        hidden_channels=6,
        depth=1,
        panel_size=16,
        series_length=32,
        batch_size=6,
        epochs=1,
        seed=0,
    )
    base.update(overrides)
    return AimTSConfig(**base)


def _produced(pretrainer, series):
    """The produced batch for ``series`` at step (0, 0) — the loss's input."""
    producer = _PretrainLoop(pretrainer).producer_factory()(0)
    return producer.produce(0, 0, (np.arange(len(series)), series))


@pytest.fixture(scope="module")
def tiny_pool():
    corpus = load_pretraining_corpus("monash", n_datasets=3, seed=0)
    from repro.data.loaders import build_pretraining_pool

    return build_pretraining_pool(corpus, length=32, n_variables=1, max_samples=18, seed=0)


class TestBuildAugmentationBank:
    def test_default_names(self):
        config = _tiny_config()
        bank = build_augmentation_bank(config, new_rng(0))
        assert bank.names == list(config.augmentation_names)

    def test_unknown_name_rejected(self):
        config = _tiny_config(augmentation_names=("jitter", "quantum_flip"))
        with pytest.raises(KeyError):
            build_augmentation_bank(config, new_rng(0))


class TestComputeBatchLoss:
    def test_all_components_present(self, tiny_pool):
        pretrainer = AimTSPretrainer(_tiny_config())
        losses = pretrainer.compute_batch_loss(*_produced(pretrainer, tiny_pool[:6]))
        assert set(losses) == {"prototype", "series_image", "total"}
        assert np.isfinite(losses["total"].item())

    def test_prototype_only(self, tiny_pool):
        pretrainer = AimTSPretrainer(_tiny_config(use_series_image_loss=False))
        losses = pretrainer.compute_batch_loss(*_produced(pretrainer, tiny_pool[:6]))
        assert "series_image" not in losses
        assert losses["total"].item() == pytest.approx(losses["prototype"].item())

    def test_series_image_only(self, tiny_pool):
        pretrainer = AimTSPretrainer(_tiny_config(use_prototype_loss=False))
        losses = pretrainer.compute_batch_loss(*_produced(pretrainer, tiny_pool[:6]))
        assert "prototype" not in losses

    def test_both_disabled_raises(self, tiny_pool):
        pretrainer = AimTSPretrainer(
            _tiny_config(use_prototype_loss=False, use_series_image_loss=False)
        )
        with pytest.raises(RuntimeError):
            pretrainer.compute_batch_loss(*_produced(pretrainer, tiny_pool[:6]))

    def test_total_loss_differentiable_end_to_end(self, tiny_pool):
        pretrainer = AimTSPretrainer(_tiny_config())
        losses = pretrainer.compute_batch_loss(*_produced(pretrainer, tiny_pool[:6]))
        losses["total"].backward()
        grads = [p.grad for p in pretrainer.ts_encoder.parameters()]
        assert all(g is not None for g in grads)
        image_grads = [p.grad for p in pretrainer.image_encoder.parameters()]
        assert all(g is not None for g in image_grads)


class TestFit:
    def test_fit_records_history(self, tiny_pool):
        pretrainer = AimTSPretrainer(_tiny_config(epochs=2))
        history = pretrainer.fit(tiny_pool)
        assert len(history.total_loss) == 2
        assert history.last()["total_loss"] == history.total_loss[-1]
        assert all(np.isfinite(v) for v in history.total_loss)

    def test_fit_accepts_corpus_of_datasets(self):
        corpus = load_pretraining_corpus("monash", n_datasets=2, seed=0)
        pretrainer = AimTSPretrainer(_tiny_config())
        history = pretrainer.fit(corpus, max_samples=12)
        assert len(history.total_loss) == 1

    def test_learning_rate_decays_with_steplr(self, tiny_pool):
        pretrainer = AimTSPretrainer(_tiny_config(epochs=2, lr_step_size=1, lr_gamma=0.5))
        history = pretrainer.fit(tiny_pool)
        assert history.learning_rate[0] == pytest.approx(pretrainer.config.learning_rate)

    def test_loss_decreases_over_epochs(self, tiny_pool):
        pretrainer = AimTSPretrainer(_tiny_config(epochs=3, learning_rate=3e-3))
        history = pretrainer.fit(tiny_pool)
        assert history.total_loss[-1] < history.total_loss[0]

    def test_encode_shape_after_fit(self, tiny_pool):
        pretrainer = AimTSPretrainer(_tiny_config())
        pretrainer.fit(tiny_pool)
        representations = pretrainer.encode(tiny_pool[:7])
        assert representations.shape == (7, pretrainer.config.repr_dim)

    def test_empty_history_last(self):
        pretrainer = AimTSPretrainer(_tiny_config())
        assert pretrainer.history.last() == {}

    def test_ablation_switches_run(self, tiny_pool):
        for overrides in (
            {"temperature_mode": "fixed"},
            {"mixup_mode": "none"},
            {"mixup_mode": "linear"},
            {"prototype_reduction": "median"},
            {"use_intra_loss": False},
        ):
            pretrainer = AimTSPretrainer(_tiny_config(**overrides))
            losses = pretrainer.compute_batch_loss(*_produced(pretrainer, tiny_pool[:6]))
            assert np.isfinite(losses["total"].item())
