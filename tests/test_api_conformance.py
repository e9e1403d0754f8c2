"""Protocol-conformance tests: every registered estimator obeys the contract.

One parametrised test drives each estimator in the registry through the full
life cycle — ``pretrain → fine_tune → predict → save → load → predict`` — on
a tiny synthetic dataset and asserts byte-identical predictions after the
full-bundle round trip.  Another pins the array names and manifest keys of an
AimTS and a baseline bundle, so bundles saved by earlier versions keep
loading.
"""

from __future__ import annotations

import importlib
import pkgutil

import numpy as np
import pytest

import repro
from repro.api import Estimator, estimator_names, load_bundle, load_estimator, make_estimator
from repro.core.config import FineTuneConfig
from repro.core.finetuner import FineTuneResult
from repro.data.archives import make_dataset

#: shared tiny scale for the neural estimators
_TINY_NEURAL = dict(
    repr_dim=10,
    proj_dim=5,
    hidden_channels=5,
    depth=1,
    series_length=32,
    batch_size=8,
    epochs=1,
    seed=0,
)

#: per-estimator construction overrides keeping the test fast on CPU
TINY_OVERRIDES = {
    "aimts": dict(panel_size=16, augmentation_names=("jitter", "scaling"), **_TINY_NEURAL),
    "ts2vec": _TINY_NEURAL,
    "tstcc": _TINY_NEURAL,
    "tloss": _TINY_NEURAL,
    "tnc": _TINY_NEURAL,
    "simclr": _TINY_NEURAL,
    "moment": _TINY_NEURAL,
    "units": _TINY_NEURAL,
    "supervised_cnn": dict(hidden_channels=5, repr_dim=10, depth=1, epochs=2, seed=0),
    "linear": dict(),
    "rocket": dict(n_kernels=16, seed=0),
    "minirocket": dict(n_kernels=16, seed=0),
}


@pytest.fixture(scope="module")
def conformance_dataset():
    return make_dataset(
        "conformance", "ecg", n_classes=2, n_train=12, n_test=8, length=32, n_variables=1, seed=0
    )


@pytest.fixture(scope="module")
def pretrain_pool():
    return np.random.default_rng(0).normal(size=(10, 1, 32))


#: ``repro`` and every package under it
PACKAGES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.") if info.ispkg
)


@pytest.mark.parametrize("package", PACKAGES)
def test_package_exports_resolve_once(package):
    """Every ``__all__`` name resolves and is listed once, so deleting a name
    without its export (or exporting it twice) fails here."""
    module = importlib.import_module(package)
    exported = list(module.__all__)
    assert sorted({n for n in exported if exported.count(n) > 1}) == []
    assert [name for name in exported if not hasattr(module, name)] == []


def test_every_estimator_has_tiny_overrides():
    """Keep TINY_OVERRIDES in sync with the registry."""
    assert set(TINY_OVERRIDES) == set(estimator_names())


@pytest.mark.parametrize("name", sorted(TINY_OVERRIDES))
def test_full_life_cycle_conformance(name, tmp_path, conformance_dataset, pretrain_pool):
    dataset = conformance_dataset
    estimator = make_estimator(name, **TINY_OVERRIDES[name])
    assert isinstance(estimator, Estimator)
    assert estimator.api_name == name

    # pretrain: real work for self-supervised models, a documented no-op otherwise
    estimator.pretrain(pretrain_pool)
    if estimator.supports_pretraining:
        assert estimator.is_pretrained

    # by keyword, the name the Estimator protocol declares; run_protocol's
    # positional call is covered by the evaluation tests
    finetune_config = FineTuneConfig(epochs=2, batch_size=8, classifier_hidden_dim=8, seed=0)
    result = estimator.fine_tune(dataset, config=finetune_config)
    assert isinstance(result, FineTuneResult)
    assert 0.0 <= result.accuracy <= 1.0
    assert result.dataset == dataset.name

    predictions = estimator.predict(dataset.test.X)
    probabilities = estimator.predict_proba(dataset.test.X)
    assert predictions.shape == (len(dataset.test),)
    assert probabilities.shape == (len(dataset.test), dataset.n_classes)
    np.testing.assert_allclose(probabilities.sum(axis=1), 1.0)
    np.testing.assert_array_equal(probabilities.argmax(axis=1), predictions)

    representations = estimator.encode(dataset.test.X)
    assert representations.ndim == 2
    assert representations.shape[0] == len(dataset.test)

    # full-bundle round trip through the registry: byte-identical predictions
    path = estimator.save(tmp_path / f"{name}-bundle")
    clone = load_estimator(path)
    assert type(clone) is type(estimator)
    np.testing.assert_array_equal(clone.predict(dataset.test.X), predictions)
    np.testing.assert_array_equal(clone.predict_proba(dataset.test.X), probabilities)


@pytest.mark.parametrize("name", sorted(TINY_OVERRIDES))
def test_instance_load_matches_saved_state(name, tmp_path, conformance_dataset, pretrain_pool):
    """``est.load(path)`` on a fresh same-config instance restores predictions."""
    dataset = conformance_dataset
    estimator = make_estimator(name, **TINY_OVERRIDES[name])
    estimator.pretrain(pretrain_pool)
    finetune_config = FineTuneConfig(epochs=1, batch_size=8, classifier_hidden_dim=8, seed=0)
    estimator.fine_tune(dataset, finetune_config)
    predictions = estimator.predict(dataset.test.X)

    path = estimator.save(tmp_path / f"{name}-instance")
    fresh = make_estimator(name, **TINY_OVERRIDES[name]).load(path)
    np.testing.assert_array_equal(fresh.predict(dataset.test.X), predictions)


#: array-name suffixes of the modules a TINY bundle stores, as the bundles of
#: earlier versions of the library hold them
_TS_ENCODER = [
    f"{layer}.{param}"
    for layer in ("blocks.0.conv1", "blocks.0.conv2", "head", "input_conv")
    for param in ("bias", "weight")
]
_PROJECTION = [f"{layer}.{param}" for layer in ("fc1", "fc2") for param in ("bias", "weight")]
_FINETUNE = [
    *(f"finetune.classifier.network.network.{i}.{param}" for i in (0, 3) for param in ("bias", "weight")),
    *(f"finetune.encoder.{key}" for key in _TS_ENCODER),
    "finetune.label_map",
]
_IMAGE_ENCODER = [
    "head.bias", "head.weight", "trunk.0.bias", "trunk.0.weight", "trunk.1.bias",
    "trunk.1.running_mean", "trunk.1.running_var", "trunk.1.weight", "trunk.3.bias",
    "trunk.3.weight", "trunk.4.bias", "trunk.4.running_mean", "trunk.4.running_var",
    "trunk.4.weight",
]
BUNDLE_LAYOUT = {
    "aimts": (
        [
            *_FINETUNE,
            *(f"image_encoder.{key}" for key in _IMAGE_ENCODER),
            *(
                f"{name}.{key}"
                for name in (
                    "image_projection", "prototype_projection", "series_projection", "view_projection"
                )
                for key in _PROJECTION
            ),
            *(f"ts_encoder.{key}" for key in _TS_ENCODER),
        ],
        ["config", "dtypes", "estimator", "finetune", "format", "pretrained", "schema_version"],
        None,
    ),
    "units": (
        [
            *_FINETUNE,
            *(f"model.decoder.network.network.{i}.{param}" for i in (0, 2) for param in ("bias", "weight")),
            *(f"model.encoder.{key}" for key in _TS_ENCODER),
            *(f"model.projection.{key}" for key in _PROJECTION),
        ],
        [
            "config", "dtypes", "estimator", "finetune", "format", "init_kwargs", "pretrained",
            "schema_version",
        ],
        ["contrastive_weight", "mask_ratio", "tau"],
    ),
}


@pytest.mark.parametrize("name", sorted(BUNDLE_LAYOUT))
def test_bundle_layout_is_pinned(name, tmp_path, conformance_dataset, pretrain_pool):
    """A fine-tuned bundle keeps the array names and manifest keys that
    bundles saved by earlier versions hold, so those stay loadable; round
    trips within one version cannot see a changed prefix or a dropped key."""
    arrays_expected, keys_expected, init_kwargs_expected = BUNDLE_LAYOUT[name]
    estimator = make_estimator(name, **TINY_OVERRIDES[name])
    estimator.pretrain(pretrain_pool)
    estimator.fine_tune(
        conformance_dataset, config=FineTuneConfig(epochs=1, batch_size=8, classifier_hidden_dim=8, seed=0)
    )
    arrays, manifest = load_bundle(estimator.save(tmp_path / name))
    assert sorted(arrays) == sorted(arrays_expected)
    assert sorted(manifest) == keys_expected
    assert sorted(manifest["finetune"]) == ["channel_aggregation", "config", "n_classes", "n_variables"]
    if init_kwargs_expected is not None:
        assert sorted(manifest["init_kwargs"]) == init_kwargs_expected
