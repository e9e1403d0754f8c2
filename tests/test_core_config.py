"""Tests for the configuration dataclasses."""

from __future__ import annotations

import pytest

from repro.core.config import AimTSConfig, FineTuneConfig


class TestAimTSConfig:
    def test_defaults_match_paper_settings(self):
        config = AimTSConfig()
        assert config.seed == 3407
        assert config.batch_size == 16
        assert config.learning_rate == pytest.approx(7e-3)
        assert config.epochs == 2
        assert config.n_augmentations == 5
        assert config.temperature_mode == "adaptive"
        assert config.mixup_mode == "geodesic"

    def test_n_augmentations_tracks_names(self):
        config = AimTSConfig(augmentation_names=("jitter", "scaling"))
        assert config.n_augmentations == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"repr_dim": 0},
            {"batch_size": -1},
            {"learning_rate": 0.0},
            {"alpha": 1.5},
            {"beta": -0.1},
            {"gamma": 0.0},
            {"tau0": 0.0},
            {"temperature_mode": "magic"},
            {"mixup_mode": "magic"},
            {"prototype_reduction": "max"},
            {"augmentation_names": ()},
            {"kernel_size": 0},
            {"lr_step_size": 0},
            {"lr_gamma": -1.0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AimTSConfig(**kwargs)


class TestFineTuneConfig:
    def test_defaults(self):
        config = FineTuneConfig()
        assert config.learning_rate == pytest.approx(1e-3)
        assert config.epochs == 20
        assert not config.freeze_encoder

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": 0.0},
            {"epochs": 0},
            {"batch_size": 0},
            {"dropout": 1.5},
            {"dropout": 1.0},
            {"classifier_hidden_dim": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FineTuneConfig(**kwargs)
