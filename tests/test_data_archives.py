"""Tests for the dataset containers, archives, registry, loaders and few-shot sampling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import (
    BatchIterator,
    DatasetSplit,
    TimeSeriesDataset,
    dataset_names,
    few_shot_subset,
    load_archive,
    load_dataset,
    load_pretraining_corpus,
    pad_or_truncate,
    z_normalize,
)
from repro.data.archives import (
    FEWSHOT_DATASETS,
    NAMED_DATASETS,
    SINGLE_SOURCE_DATASETS,
    UEA10_TABLE2,
    make_dataset,
    make_monash_like_corpus,
    make_named_dataset,
    make_ucr_like_archive,
    make_uea_like_archive,
)
from repro.data.loaders import build_pretraining_pool, select_variables


class TestDatasetContainers:
    def test_split_validation(self, rng):
        with pytest.raises(ValueError):
            DatasetSplit(rng.normal(size=(4, 8)))  # not 3-D
        with pytest.raises(ValueError):
            DatasetSplit(rng.normal(size=(4, 1, 8)), np.zeros(3))  # label mismatch

    def test_split_properties_and_subset(self, rng):
        split = DatasetSplit(rng.normal(size=(6, 2, 10)), np.arange(6) % 2)
        assert len(split) == 6
        assert split.n_variables == 2 and split.length == 10
        subset = split.subset(np.array([0, 2, 4]))
        assert len(subset) == 3
        np.testing.assert_array_equal(subset.y, [0, 0, 0])

    def test_dataset_validation_checks_labels(self, rng):
        train = DatasetSplit(rng.normal(size=(4, 1, 8)), np.array([0, 1, 2, 3]))
        test = DatasetSplit(rng.normal(size=(4, 1, 8)), np.array([0, 1, 2, 3]))
        with pytest.raises(ValueError):
            TimeSeriesDataset("bad", "ecg", train, test, n_classes=2)

    def test_dataset_describe(self, small_dataset):
        info = small_dataset.describe()
        assert info["name"] == "unit_ecg"
        assert info["n_classes"] == 2
        assert not small_dataset.is_multivariate


class TestMakeDataset:
    def test_train_test_disjoint_but_same_templates(self):
        dataset = make_dataset("t", "ecg", n_classes=2, n_train=10, n_test=12, length=32, seed=0)
        assert len(dataset.train) == 10 and len(dataset.test) == 12
        assert not np.allclose(dataset.train.X[:10], dataset.test.X[:10])

    def test_deterministic_given_seed(self):
        a = make_dataset("t", "motion", n_classes=3, n_train=8, n_test=8, length=32, n_variables=2, seed=5)
        b = make_dataset("t", "motion", n_classes=3, n_train=8, n_test=8, length=32, n_variables=2, seed=5)
        np.testing.assert_array_equal(a.train.X, b.train.X)

    def test_unknown_family(self):
        with pytest.raises(KeyError):
            make_dataset("t", "nope", n_classes=2, n_train=4, n_test=4, length=16)


class TestArchives:
    def test_ucr_like_archive_is_univariate_and_heterogeneous(self):
        archive = make_ucr_like_archive(6, seed=0)
        assert len(archive) == 6
        assert all(ds.n_variables == 1 for ds in archive)
        lengths = {ds.length for ds in archive}
        assert len(lengths) > 1  # heterogeneous lengths

    def test_uea_like_archive_is_multivariate(self):
        archive = make_uea_like_archive(4, seed=0)
        assert all(ds.n_variables >= 2 for ds in archive)

    def test_monash_corpus_is_unlabeled(self):
        corpus = make_monash_like_corpus(5, samples_per_dataset=6, seed=0)
        assert len(corpus) == 5
        assert all(ds.train.y is None for ds in corpus)
        assert all(ds.n_classes == 0 for ds in corpus)

    def test_monash_corpus_mixes_dimensionalities(self):
        corpus = make_monash_like_corpus(19, samples_per_dataset=4, seed=0)
        n_vars = {ds.n_variables for ds in corpus}
        assert 1 in n_vars and any(v > 1 for v in n_vars)

    def test_named_dataset_lists_are_consistent(self):
        for name in UEA10_TABLE2 + FEWSHOT_DATASETS + SINGLE_SOURCE_DATASETS:
            assert name in NAMED_DATASETS

    def test_named_dataset_scaling(self):
        small = make_named_dataset("ECG200", scale=1.0)
        big = make_named_dataset("ECG200", scale=2.0)
        assert len(big.train) == 2 * len(small.train)

    def test_make_named_dataset_unknown(self):
        with pytest.raises(KeyError):
            make_named_dataset("NotADataset")


class TestRegistry:
    def test_dataset_names_nonempty(self):
        names = dataset_names()
        assert "ECG200" in names and "FD-B" in names

    def test_load_dataset_is_cached(self):
        a = load_dataset("ECG200", seed=11)
        b = load_dataset("ECG200", seed=11)
        assert a is b

    def test_load_dataset_different_seed_differs(self):
        a = load_dataset("ECG200", seed=1)
        b = load_dataset("ECG200", seed=2)
        assert not np.allclose(a.train.X, b.train.X)

    def test_load_dataset_unknown(self):
        with pytest.raises(KeyError):
            load_dataset("UnknownDataset")

    def test_load_archive_variants(self):
        assert len(load_archive("ucr", n_datasets=3)) == 3
        assert len(load_archive("uea", n_datasets=2)) == 2
        assert len(load_archive("monash", n_datasets=2)) == 2
        with pytest.raises(KeyError):
            load_archive("nonexistent")

    def test_load_pretraining_corpus_sources(self):
        for source in ("monash", "ucr", "uea"):
            corpus = load_pretraining_corpus(source, n_datasets=2)
            assert len(corpus) == 2


class TestLoaders:
    def test_z_normalize(self, rng):
        X = rng.normal(loc=10, scale=5, size=(4, 2, 50))
        normalised = z_normalize(X)
        np.testing.assert_allclose(normalised.mean(axis=-1), 0, atol=1e-9)
        np.testing.assert_allclose(normalised.std(axis=-1), 1, atol=1e-6)

    def test_z_normalize_constant_series_is_finite(self):
        X = np.ones((2, 1, 10))
        assert np.all(np.isfinite(z_normalize(X)))

    def test_pad_or_truncate_lengths(self, rng):
        X = rng.normal(size=(3, 2, 40))
        assert pad_or_truncate(X, 40).shape == (3, 2, 40)
        assert pad_or_truncate(X, 64).shape == (3, 2, 64)
        assert pad_or_truncate(X, 20).shape == (3, 2, 20)

    def test_pad_or_truncate_preserves_endpoints(self, rng):
        X = rng.normal(size=(1, 1, 20))
        out = pad_or_truncate(X, 40)
        assert out[0, 0, 0] == pytest.approx(X[0, 0, 0])
        assert out[0, 0, -1] == pytest.approx(X[0, 0, -1])

    def test_select_variables(self, rng):
        X = rng.normal(size=(2, 3, 10))
        assert select_variables(X, 3).shape == (2, 3, 10)
        assert select_variables(X, 2).shape == (2, 2, 10)
        grown = select_variables(X, 5)
        assert grown.shape == (2, 5, 10)
        np.testing.assert_array_equal(grown[:, 3], X[:, 0])

    def test_batch_iterator_covers_all_samples(self, rng):
        X = rng.normal(size=(10, 1, 8))
        y = np.arange(10)
        iterator = BatchIterator(X, y, batch_size=3, shuffle=True, seed=0)
        assert len(iterator) == 4
        seen = np.concatenate([labels for _, labels in iterator])
        assert sorted(seen.tolist()) == list(range(10))

    def test_batch_iterator_no_shuffle_keeps_order(self, rng):
        X = rng.normal(size=(5, 1, 8))
        y = np.arange(5)
        batches = list(BatchIterator(X, y, batch_size=2, shuffle=False))
        np.testing.assert_array_equal(batches[0][1], [0, 1])

    def test_batch_iterator_validation(self, rng):
        with pytest.raises(ValueError):
            BatchIterator(rng.normal(size=(4, 1, 8)), np.zeros(3))
        with pytest.raises(ValueError):
            BatchIterator(rng.normal(size=(4, 1, 8)), batch_size=0)

    def test_pad_or_truncate_matches_per_series_interp(self, rng):
        # the batched gather must agree with the old per-series np.interp loop
        for t, target in ((30, 40), (64, 40), (7, 96), (2, 5)):
            X = rng.normal(size=(4, 3, t))
            out = pad_or_truncate(X, target)
            old_grid = np.linspace(0.0, 1.0, t)
            new_grid = np.linspace(0.0, 1.0, target)
            for i in range(4):
                for j in range(3):
                    np.testing.assert_allclose(
                        out[i, j], np.interp(new_grid, old_grid, X[i, j]), atol=1e-12
                    )

    def test_pad_or_truncate_single_observation(self):
        out = pad_or_truncate(np.full((2, 1, 1), 7.0), 6)
        np.testing.assert_array_equal(out, np.full((2, 1, 6), 7.0))

    def test_z_normalize_preserves_float_dtype(self, rng):
        X32 = rng.normal(size=(2, 1, 20)).astype(np.float32)
        assert z_normalize(X32).dtype == np.float32
        assert z_normalize(X32, dtype=np.float64).dtype == np.float64
        assert z_normalize(np.arange(24).reshape(2, 1, 12)).dtype == np.float64

    def test_batch_iterator_avoids_redundant_copy(self, rng):
        X = rng.normal(size=(4, 1, 8))
        assert BatchIterator(X).X is X  # already float64: no copy
        X32 = X.astype(np.float32)
        assert BatchIterator(X32).X is X32  # floating dtype preserved
        assert BatchIterator(X32, dtype=np.float64).X.dtype == np.float64

    def test_build_pretraining_pool_shapes(self):
        corpus = make_monash_like_corpus(3, samples_per_dataset=5, seed=0)
        pool = build_pretraining_pool(corpus, length=32, n_variables=1)
        assert pool.shape == (15, 1, 32)
        capped = build_pretraining_pool(corpus, length=32, n_variables=2, max_samples=7, seed=0)
        assert capped.shape == (7, 2, 32)


class TestFewShot:
    def test_ratio_reduces_size_stratified(self, small_dataset):
        subset = few_shot_subset(small_dataset.train, 0.25, seed=0)
        assert len(subset) < len(small_dataset.train)
        assert set(np.unique(subset.y)) == set(np.unique(small_dataset.train.y))

    def test_min_per_class_respected(self, small_dataset):
        subset = few_shot_subset(small_dataset.train, 0.01, min_per_class=1, seed=0)
        counts = np.bincount(subset.y, minlength=small_dataset.n_classes)
        assert np.all(counts >= 1)

    def test_full_ratio_keeps_everything(self, small_dataset):
        subset = few_shot_subset(small_dataset.train, 1.0, seed=0)
        assert len(subset) == len(small_dataset.train)

    def test_invalid_inputs(self, small_dataset, rng):
        with pytest.raises(ValueError):
            few_shot_subset(small_dataset.train, 0.0)
        with pytest.raises(ValueError):
            few_shot_subset(small_dataset.train, 1.5)
        unlabeled = DatasetSplit(rng.normal(size=(4, 1, 8)))
        with pytest.raises(ValueError):
            few_shot_subset(unlabeled, 0.5)

    def test_deterministic_given_seed(self, small_dataset):
        a = few_shot_subset(small_dataset.train, 0.3, seed=9)
        b = few_shot_subset(small_dataset.train, 0.3, seed=9)
        np.testing.assert_array_equal(a.X, b.X)
