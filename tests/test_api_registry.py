"""Tests for the component registry, bundle checkpoints and legacy shims."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.api import (
    AUGMENTATIONS,
    ENCODERS,
    SCHEMA_VERSION,
    BundleFormatError,
    estimator_names,
    load_bundle,
    load_estimator,
    make_estimator,
    peek_manifest,
    save_bundle,
)
from repro.api.bundle import MANIFEST_KEY
from repro.baselines import BaselineConfig, TS2Vec
from repro.core import AimTS, AimTSConfig, FineTuneConfig


@pytest.fixture
def tiny_baseline_config():
    return BaselineConfig(
        repr_dim=10, proj_dim=5, hidden_channels=5, depth=1, series_length=32, batch_size=8, epochs=1, seed=0
    )


class TestRegistry:
    def test_all_expected_estimators_registered(self):
        expected = {
            "aimts",
            "ts2vec",
            "tstcc",
            "tloss",
            "tnc",
            "simclr",
            "moment",
            "units",
            "supervised_cnn",
            "linear",
            "rocket",
            "minirocket",
        }
        assert expected == set(estimator_names())

    def test_unknown_estimator_raises_with_known_names(self):
        with pytest.raises(KeyError, match="unknown estimator"):
            make_estimator("resnet")

    def test_names_are_case_insensitive(self):
        assert type(make_estimator("Rocket", n_kernels=8)).__name__ == "Rocket"

    def test_config_overrides_routed_to_dataclass(self):
        estimator = make_estimator("ts2vec", repr_dim=12, tau=0.07)
        assert estimator.config.repr_dim == 12
        assert estimator.tau == 0.07

    def test_explicit_config_object_with_overrides(self, tiny_baseline_config):
        estimator = make_estimator("tloss", config=tiny_baseline_config, repr_dim=14)
        assert estimator.config.repr_dim == 14
        assert estimator.config.proj_dim == tiny_baseline_config.proj_dim

    def test_spec_dict_construction(self):
        estimator = make_estimator({"name": "minirocket", "n_kernels": 9, "seed": 1})
        assert estimator.n_kernels == 9
        with pytest.raises(ValueError, match="'name' key"):
            make_estimator({"n_kernels": 9})

    def test_pre_use_registration_not_clobbered_by_builtins(self, monkeypatch):
        """A custom factory registered before first registry use survives population."""
        from repro.api import registry as registry_module

        original = dict(registry_module.ESTIMATORS._factories)
        try:
            monkeypatch.setattr(registry_module, "_POPULATED", False)
            registry_module.ESTIMATORS.register("rocket", lambda **kw: "custom")
            assert registry_module.ESTIMATORS.create("rocket") == "custom"
        finally:
            registry_module.ESTIMATORS._factories.clear()
            registry_module.ESTIMATORS._factories.update(original)

    def test_encoder_and_augmentation_registries(self):
        encoder = ENCODERS.create("ts_encoder", hidden_channels=4, repr_dim=8, depth=1, rng=0)
        assert encoder.repr_dim == 8
        jitter = AUGMENTATIONS.create("jitter", sigma=0.5, seed=0)
        assert jitter.sigma == 0.5
        assert "time_warp" in AUGMENTATIONS


class TestBundleFormat:
    def test_round_trip_preserves_arrays_and_manifest(self, tmp_path):
        arrays = {"a": np.arange(4, dtype=np.float32), "b": np.eye(2)}
        path = save_bundle(tmp_path / "bundle", arrays, {"estimator": "demo"})
        assert path.endswith(".npz")
        loaded, manifest = load_bundle(path)
        np.testing.assert_array_equal(loaded["a"], arrays["a"])
        assert loaded["a"].dtype == np.float32
        assert manifest["estimator"] == "demo"
        assert manifest["schema_version"] == SCHEMA_VERSION
        assert manifest["dtypes"]["a"] == "float32"

    def test_case_insensitive_npz_suffix_not_doubled(self, tmp_path):
        path = save_bundle(tmp_path / "model.NPZ", {"a": np.zeros(1)}, {})
        assert path.endswith("model.NPZ")

    def test_load_accepts_the_same_path_string_as_save(self, tmp_path):
        """save("m") writes "m.npz"; load("m") must find it too."""
        bare = tmp_path / "suffixless"
        save_bundle(bare, {"a": np.ones(2)}, {"estimator": "demo"})
        arrays, manifest = load_bundle(bare)
        np.testing.assert_array_equal(arrays["a"], np.ones(2))
        assert peek_manifest(bare)["estimator"] == "demo"

    def test_legacy_archive_rejected_with_clear_error(self, tmp_path):
        legacy = tmp_path / "legacy.npz"
        np.savez(legacy, weight=np.zeros(3))
        with pytest.raises(BundleFormatError, match="no manifest"):
            load_bundle(legacy)
        with pytest.raises(BundleFormatError, match="no manifest"):
            peek_manifest(legacy)

    def test_schema_version_mismatch_rejected(self, tmp_path):
        manifest = {"format": "repro-bundle", "schema_version": SCHEMA_VERSION + 1}
        encoded = np.frombuffer(json.dumps(manifest).encode(), dtype=np.uint8)
        bad = tmp_path / "future.npz"
        np.savez(bad, **{MANIFEST_KEY: encoded})
        with pytest.raises(BundleFormatError, match="schema version"):
            load_bundle(bad)

    def test_bundle_without_estimator_name_rejected(self, tmp_path):
        path = save_bundle(tmp_path / "anon", {"a": np.zeros(1)}, {})
        with pytest.raises(BundleFormatError, match="does not name its estimator"):
            load_estimator(path)

    def test_damaged_archive_raises_format_error_or_reads_intact(self, tmp_path):
        """Every single-byte flip and every 7th truncation of a saved bundle
        either raises BundleFormatError or reads back exactly what was saved.

        ``c`` is larger than zipfile's 4 KiB read chunk, so a flip in its
        ``.npy`` header reaches NumPy's header parser before the CRC check."""
        arrays = {
            "a": np.arange(6, dtype=np.float32),
            "b": np.eye(3),
            "c": np.linspace(0.0, 1.0, 1024),
        }
        path = save_bundle(tmp_path / "bundle", arrays, {"estimator": "demo"})
        _, manifest = load_bundle(path)
        raw = Path(path).read_bytes()
        flips = [raw[:i] + bytes([raw[i] ^ 0xFF]) + raw[i + 1 :] for i in range(len(raw))]
        truncations = [raw[:length] for length in range(0, len(raw), 7)]
        damaged = tmp_path / "damaged.npz"
        for data in flips + truncations:
            damaged.write_bytes(data)
            try:
                loaded, loaded_manifest = load_bundle(damaged)
            except BundleFormatError:
                pass
            else:
                assert loaded.keys() == arrays.keys()
                for key, value in arrays.items():
                    assert loaded[key].dtype == value.dtype
                    np.testing.assert_array_equal(loaded[key], value)
                assert loaded_manifest == manifest
            try:
                peeked = peek_manifest(damaged)
            except BundleFormatError:
                pass
            else:
                assert peeked == manifest
        with pytest.raises(FileNotFoundError):
            load_bundle(tmp_path / "missing.npz")
        with pytest.raises(FileNotFoundError):
            peek_manifest(tmp_path / "missing.npz")


class TestFullBundleContents:
    def test_aimts_bundle_holds_finetuned_classifier_and_label_map(
        self, tmp_path, small_dataset, tiny_config, tiny_finetune_config
    ):
        model = AimTS(tiny_config)
        model.pretrain(np.random.default_rng(0).normal(size=(10, 1, 48)))
        model.fine_tune(small_dataset, tiny_finetune_config)
        path = model.save(tmp_path / "aimts-full")
        manifest = peek_manifest(path)
        assert manifest["estimator"] == "aimts"
        assert manifest["pretrained"] is True
        assert manifest["finetune"]["n_classes"] == small_dataset.n_classes
        assert manifest["config"]["repr_dim"] == tiny_config.repr_dim
        arrays, _ = load_bundle(path)
        assert "finetune.label_map" in arrays
        assert any(key.startswith("finetune.classifier.") for key in arrays)

    def test_aimts_load_rejects_legacy_checkpoint(self, tmp_path, tiny_config):
        """A pre-bundle encoder-only state-dict archive is not a bundle."""
        from repro.nn.serialization import save_state_dict

        model = AimTS(tiny_config)
        state = {}
        for prefix, module in model.pretrainer.named_modules().items():
            for key, value in module.state_dict().items():
                state[f"{prefix}.{key}"] = value
        path = save_state_dict(state, tmp_path / "legacy-aimts")
        with pytest.raises(BundleFormatError, match="no manifest"):
            AimTS(tiny_config).load(path)
        with pytest.raises(BundleFormatError, match="no manifest"):
            load_estimator(path)

    def test_removed_config_field_raises_format_error(self, tmp_path, tiny_config):
        """A bundle whose stored config names a field this version does not
        have (e.g. one saved before a config knob was deleted) is rejected by
        name instead of failing inside the estimator's constructor."""
        path = AimTS(tiny_config).save(tmp_path / "aimts")
        arrays, manifest = load_bundle(path)
        manifest["config"]["cache_spill_dir"] = None
        manifest["config"]["cache_spill_max_bytes"] = None
        save_bundle(path, arrays, manifest)
        with pytest.raises(BundleFormatError, match="cache_spill_dir") as raised:
            load_estimator(path)
        assert "cache_spill_max_bytes" in str(raised.value)
        # AimTS.load restores weights into a configured instance and does not
        # read the stored config
        assert AimTS(tiny_config).load(path).is_pretrained is False

    def test_baseline_bundle_restores_pretrained_flag(
        self, tmp_path, tiny_baseline_config, small_dataset
    ):
        baseline = TS2Vec(tiny_baseline_config)
        baseline.pretrain(small_dataset.train.X, epochs=1)
        path = baseline.save(tmp_path / "ts2vec")
        clone = load_estimator(path)
        assert clone.is_pretrained
        assert clone.config == baseline.config
        np.testing.assert_array_equal(
            clone.encoder.state_dict()["input_conv.weight"],
            baseline.encoder.state_dict()["input_conv.weight"],
        )

    def test_pretrain_only_bundle_resets_fitted_classifier_on_load(
        self, tmp_path, tiny_baseline_config, small_dataset
    ):
        """Loading a checkpoint without a finetune section disarms predict()."""
        baseline = TS2Vec(tiny_baseline_config)
        baseline.pretrain(small_dataset.train.X, epochs=1)
        path = baseline.save(tmp_path / "pretrain-only")
        baseline.fine_tune(small_dataset, FineTuneConfig(epochs=1, batch_size=8, seed=0))
        assert baseline.is_fitted
        baseline.load(path)
        assert not baseline.is_fitted
        with pytest.raises(RuntimeError, match="no fine-tuned classifier"):
            baseline.predict(small_dataset.test.X)
