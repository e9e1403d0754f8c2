"""Tests for the out-of-core sharded corpus store (``repro.data.corpus``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.corpus import (
    CorpusFormatError,
    CorpusWriter,
    ShardedCorpus,
    build_synthetic_corpus,
    generate_family_samples,
    is_sharded_corpus,
    read_manifest,
)
from repro.data.corpus.__main__ import main as corpus_cli
from repro.data.loaders import BatchIterator, build_pretraining_pool, epoch_index_batches


@pytest.fixture
def samples(rng) -> tuple[np.ndarray, np.ndarray]:
    X = rng.normal(size=(23, 2, 16)).astype(np.float32)
    y = rng.integers(0, 4, size=23)
    return X, y


def write_corpus(directory, X, y=None, **kwargs):
    with CorpusWriter(
        directory, X.shape[1:], dtype=X.dtype, labeled=y is not None, **kwargs
    ) as writer:
        writer.append(X, y)
    return ShardedCorpus(directory)


class TestWriterReaderRoundTrip:
    def test_byte_identical_round_trip(self, tmp_path, samples):
        X, y = samples
        corpus = write_corpus(tmp_path / "c", X, y, shard_size=7)
        assert len(corpus) == 23
        assert corpus.n_shards == 4  # 7 + 7 + 7 + 2
        assert corpus.shard_sizes == [7, 7, 7, 2]
        assert corpus.sample_shape == (2, 16)
        assert corpus.dtype == np.float32
        np.testing.assert_array_equal(corpus.materialize(), X)
        np.testing.assert_array_equal(corpus.labels, y)
        assert corpus.materialize().dtype == X.dtype
        assert corpus.verify() == []

    def test_per_sample_and_batch_appends_agree(self, tmp_path, samples):
        X, y = samples
        one = write_corpus(tmp_path / "batched", X, y, shard_size=5)
        with CorpusWriter(
            tmp_path / "single", X.shape[1:], dtype=X.dtype, labeled=True, shard_size=5
        ) as writer:
            for sample, label in zip(X, y):
                writer.append(sample, label)
        other = ShardedCorpus(tmp_path / "single")
        np.testing.assert_array_equal(one.materialize(), other.materialize())
        np.testing.assert_array_equal(one.labels, other.labels)

    def test_gather_groups_by_shard(self, tmp_path, samples):
        X, y = samples
        corpus = write_corpus(tmp_path / "c", X, y, shard_size=6)
        indices = np.array([22, 0, 13, 13, 5, 18])  # out of order, repeated
        np.testing.assert_array_equal(corpus.gather(indices), X[indices])
        np.testing.assert_array_equal(corpus.gather_labels(indices), y[indices])
        with pytest.raises(IndexError):
            corpus.gather(np.array([23]))

    def test_unlabeled_corpus(self, tmp_path, samples):
        X, _ = samples
        corpus = write_corpus(tmp_path / "c", X, shard_size=9)
        assert corpus.labeled is False
        assert corpus.labels is None
        assert corpus.gather_labels(np.array([0, 1])) is None
        with pytest.raises(ValueError):
            with CorpusWriter(tmp_path / "d", X.shape[1:]) as writer:
                writer.append(X, np.zeros(len(X), dtype=np.int64))

    def test_memmap_views_are_zero_copy(self, tmp_path, samples):
        X, y = samples
        corpus = write_corpus(tmp_path / "c", X, y, shard_size=9)
        assert isinstance(corpus.shard_data(0), np.memmap)
        in_ram = ShardedCorpus(tmp_path / "c", mmap=False)
        assert not isinstance(in_ram.shard_data(0), np.memmap)
        np.testing.assert_array_equal(in_ram.materialize(), X)

    def test_overwrite_semantics(self, tmp_path, samples):
        X, y = samples
        write_corpus(tmp_path / "c", X, y, shard_size=4)
        with pytest.raises(FileExistsError):
            CorpusWriter(tmp_path / "c", X.shape[1:])
        smaller = write_corpus(tmp_path / "c", X[:5], y[:5], shard_size=50, overwrite=True)
        assert len(smaller) == 5
        assert smaller.verify() == []  # no stale shards left behind

    def test_append_after_close_and_shape_mismatch(self, tmp_path, samples):
        X, y = samples
        writer = CorpusWriter(tmp_path / "c", (2, 16), labeled=True)
        with pytest.raises(ValueError):
            writer.append(np.zeros((3, 1, 16)), np.zeros(3, dtype=np.int64))
        writer.append(X, y)
        writer.close()
        with pytest.raises(RuntimeError):
            writer.append(X, y)

    def test_crashed_build_leaves_unreadable_directory(self, tmp_path, samples):
        X, y = samples
        with pytest.raises(RuntimeError):
            with CorpusWriter(tmp_path / "c", (2, 16), labeled=True, shard_size=4) as writer:
                writer.append(X, y)
                raise RuntimeError("boom")
        with pytest.raises(CorpusFormatError):
            ShardedCorpus(tmp_path / "c")  # shards exist, manifest does not


class TestChecksums:
    def test_verify_detects_flipped_byte(self, tmp_path, samples):
        X, y = samples
        corpus = write_corpus(tmp_path / "c", X, y, shard_size=8)
        victim = tmp_path / "c" / corpus.manifest["shards"][1]["data"]
        raw = bytearray(victim.read_bytes())
        raw[-1] ^= 0xFF
        victim.write_bytes(raw)
        fresh = ShardedCorpus(tmp_path / "c")
        assert fresh.verify() == [corpus.manifest["shards"][1]["data"]]

    def test_verify_detects_missing_label_file(self, tmp_path, samples):
        X, y = samples
        corpus = write_corpus(tmp_path / "c", X, y, shard_size=8)
        (tmp_path / "c" / corpus.manifest["shards"][0]["labels"]).unlink()
        assert ShardedCorpus(tmp_path / "c").verify() == [
            corpus.manifest["shards"][0]["labels"]
        ]

    def test_manifest_format_checks(self, tmp_path, samples):
        X, y = samples
        with pytest.raises(CorpusFormatError):
            read_manifest(tmp_path)  # no manifest at all
        write_corpus(tmp_path / "c", X, y)
        manifest = read_manifest(tmp_path / "c")
        assert manifest["format"] == "repro-corpus"
        assert manifest["schema_version"] == 1


class TestShardBoundaryDeterminism:
    def test_shard_size_does_not_change_the_bytes(self, tmp_path):
        """The ISSUE contract: shard_size=1000 vs 4096 is byte-identical."""
        kwargs = dict(families=["ecg", "motion"], n_samples=2500, length=24, seed=11)
        a = build_synthetic_corpus(tmp_path / "a", shard_size=1000, **kwargs)
        b = build_synthetic_corpus(tmp_path / "b", shard_size=4096, **kwargs)
        assert a.n_shards == 3 and b.n_shards == 1
        np.testing.assert_array_equal(a.materialize(), b.materialize())
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_streaming_matches_one_shot_generation_per_family(self, tmp_path):
        corpus = build_synthetic_corpus(
            tmp_path / "c",
            ["ecg", ("shapes", {"n_classes": 3})],
            300,
            length=24,
            shard_size=64,
            block_size=100,
            seed=5,
            dtype="float64",
        )
        start = 0
        for family_index, entry in enumerate(corpus.provenance["families"]):
            X_ref, y_ref = generate_family_samples(
                (entry["name"], entry["kwargs"]),
                entry["n_samples"],
                seed=5,
                family_index=family_index,
                length=24,
                block_size=100,
            )
            stop = start + entry["n_samples"]
            got = corpus.gather(np.arange(start, stop))
            np.testing.assert_array_equal(got, X_ref)
            np.testing.assert_array_equal(
                corpus.gather_labels(np.arange(start, stop)),
                y_ref + entry["label_offset"],
            )
            start = stop
        assert start == len(corpus)

    def test_block_size_is_the_only_generation_knob(self, tmp_path):
        same = dict(families=["ecg"], n_samples=120, length=24, seed=3)
        a = build_synthetic_corpus(tmp_path / "a", block_size=40, **same)
        b = build_synthetic_corpus(tmp_path / "b", block_size=60, **same)
        assert not np.array_equal(a.materialize(), b.materialize())


class TestIteration:
    def make(self, tmp_path, n=50, shard_size=8):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(n, 1, 8)).astype(np.float32)
        y = rng.integers(0, 3, size=n)
        return write_corpus(tmp_path / "c", X, y, shard_size=shard_size), X, y

    def test_epoch_covers_every_index_once(self, tmp_path):
        corpus, _, _ = self.make(tmp_path)
        batches = list(corpus.iter_index_batches(7, rng=0))
        assert sorted(np.concatenate(batches).tolist()) == list(range(50))
        assert [len(b) for b in batches[:-1]] == [7] * (len(batches) - 1)

    def test_seeded_iteration_is_deterministic(self, tmp_path):
        corpus, _, _ = self.make(tmp_path)
        a = [b.tolist() for b in corpus.iter_index_batches(7, rng=123)]
        b = [b.tolist() for b in corpus.iter_index_batches(7, rng=123)]
        c = [b.tolist() for b in corpus.iter_index_batches(7, rng=124)]
        assert a == b
        assert a != c

    def test_unshuffled_iteration_is_sequential(self, tmp_path):
        corpus, _, _ = self.make(tmp_path)
        flat = np.concatenate(list(corpus.iter_index_batches(7, shuffle=False)))
        np.testing.assert_array_equal(flat, np.arange(50))

    def test_single_shard_matches_in_ram_global_shuffle(self, tmp_path):
        """The ordering contract the epoch schedule's bit-identity rests on."""
        corpus, X, _ = self.make(tmp_path, n=50, shard_size=64)
        assert corpus.n_shards == 1
        flat = np.concatenate(list(corpus.iter_index_batches(7, rng=np.random.default_rng(9))))
        order = np.arange(50)
        np.random.default_rng(9).shuffle(order)
        np.testing.assert_array_equal(flat, order)

    def test_batches_for_epoch_is_stateless_and_epoch_keyed(self, tmp_path):
        corpus, _, _ = self.make(tmp_path)
        first = [b.tolist() for b in corpus.batches_for_epoch(7, epoch=3, seed=11)]
        again = [b.tolist() for b in corpus.batches_for_epoch(7, epoch=3, seed=11)]
        other = [b.tolist() for b in corpus.batches_for_epoch(7, epoch=4, seed=11)]
        assert first == again  # no shared iterator advanced between calls
        assert first != other  # epochs reshuffle
        assert sorted(np.concatenate(first).tolist()) == list(range(50))
        # the schedule is the shard-aware algorithm under the derived rng
        derived = np.random.default_rng(np.random.SeedSequence([11, 3]))
        reference = [b.tolist() for b in corpus.iter_index_batches(7, rng=derived)]
        assert first == reference

    def test_subset_iteration_and_gather(self, tmp_path):
        corpus, X, y = self.make(tmp_path)
        subset = corpus.subset(max_samples=20, seed=1)
        assert len(subset) == 20
        flat = np.concatenate(list(subset.iter_index_batches(6, rng=0)))
        assert sorted(flat.tolist()) == list(range(20))
        local = np.array([3, 0, 11])
        np.testing.assert_array_equal(subset.gather(local), X[subset.indices[local]])
        np.testing.assert_array_equal(subset.gather_labels(local), y[subset.indices[local]])
        # max_samples >= len is the identity
        assert len(corpus.subset(max_samples=500)) == 50
        with pytest.raises(ValueError):
            corpus.subset(np.arange(3), max_samples=5)


class TestLoaderIntegration:
    def test_single_shard_corpus_is_bit_identical_to_in_ram(self, tmp_path, samples):
        X, y = samples
        corpus = write_corpus(tmp_path / "c", X, y, shard_size=64)
        assert is_sharded_corpus(corpus)
        for epoch in range(3):
            from_corpus = [
                indices.tolist()
                for indices in epoch_index_batches(corpus, 5, epoch=epoch, seed=7)
            ]
            from_ram = [
                indices.tolist() for indices in epoch_index_batches(X, 5, epoch=epoch, seed=7)
            ]
            assert from_corpus == from_ram

    def test_batch_iterator_rejects_a_corpus(self, tmp_path, samples):
        X, y = samples
        corpus = write_corpus(tmp_path / "c", X, y, shard_size=6)
        with pytest.raises(TypeError, match="epoch_index_batches"):
            BatchIterator(corpus, batch_size=5)

    def test_build_pretraining_pool_passthrough(self, tmp_path):
        corpus = build_synthetic_corpus(tmp_path / "c", ["ecg"], 60, length=24, seed=0)
        assert build_pretraining_pool(corpus, length=24, n_variables=1) is corpus
        subset = build_pretraining_pool(corpus, length=24, n_variables=1, max_samples=10, seed=0)
        assert len(subset) == 10
        with pytest.raises(ValueError):
            build_pretraining_pool(corpus, length=48, n_variables=1)


class TestPretrainerIntegration:
    def test_corpus_losses_bit_identical_to_in_ram_pool(self, tmp_path):
        from repro.core import AimTSConfig, AimTSPretrainer

        corpus = build_synthetic_corpus(
            tmp_path / "c", ["ecg"], 24, length=32, shard_size=4096, seed=7,
            dtype="float64",
        )
        cfg = dict(
            series_length=32, n_variables=1, panel_size=16, epochs=2,
            batch_size=8, hidden_channels=8, repr_dim=16, proj_dim=8,
        )
        in_ram = AimTSPretrainer(AimTSConfig(**cfg)).fit(corpus.materialize())
        streamed = AimTSPretrainer(AimTSConfig(**cfg)).fit(corpus)
        assert in_ram.total_loss == streamed.total_loss
        assert in_ram.prototype_loss == streamed.prototype_loss
        assert in_ram.series_image_loss == streamed.series_image_loss

    def test_corpus_pretrain_over_budget_matches_uncached(self, tmp_path):
        from repro.core import AimTSConfig, AimTSPretrainer

        corpus = build_synthetic_corpus(
            tmp_path / "c", ["ecg", "motion"], 60, length=32, shard_size=16, seed=7
        )
        cfg = dict(
            series_length=32, n_variables=1, panel_size=16, epochs=2,
            batch_size=8, hidden_channels=8, repr_dim=16, proj_dim=8,
            compute_dtype="float32",
            cache_max_bytes=10 * 3 * 16 * 16 * 4,  # 10 of the 60 images
        )
        pretrainer = AimTSPretrainer(AimTSConfig(**cfg))
        history = pretrainer.fit(corpus)
        uncached = AimTSPretrainer(AimTSConfig(**cfg, cache_images=False)).fit(corpus)
        assert len(history) == 2
        cache = pretrainer.render_cache
        cached = len(cache)
        assert cached == 10
        stats = cache.stats()
        # the table is rendered once up front; the rows beyond it every epoch
        assert stats["rendered_samples"] == cached + 2 * (60 - cached)
        assert stats["hits"] == 2 * cached
        assert history.total_loss == uncached.total_loss
        assert history.prototype_loss == uncached.prototype_loss
        assert history.series_image_loss == uncached.series_image_loss


class TestCommandLine:
    def test_build_inspect_verify(self, tmp_path, capsys):
        out = str(tmp_path / "c")
        assert (
            corpus_cli(
                [
                    "build", "--out", out, "--families", "ecg,motion",
                    "--n-samples", "100", "--length", "24", "--shard-size", "32",
                    "--seed", "1",
                ]
            )
            == 0
        )
        assert "built 100 samples" in capsys.readouterr().out
        assert corpus_cli(["inspect", out]) == 0
        text = capsys.readouterr().out
        assert "samples      100" in text
        assert "family ecg" in text
        assert corpus_cli(["inspect", out, "--json"]) == 0
        assert '"repro-corpus"' in capsys.readouterr().out
        assert corpus_cli(["verify", out]) == 0
        assert "all checksums match" in capsys.readouterr().out

    def test_verify_exits_nonzero_on_corruption(self, tmp_path, capsys):
        out = str(tmp_path / "c")
        corpus_cli(["build", "--out", out, "--families", "ecg", "--n-samples", "40",
                    "--length", "24", "--shard-size", "16"])
        capsys.readouterr()
        victim = tmp_path / "c" / "shard-00001.npy"
        raw = bytearray(victim.read_bytes())
        raw[-1] ^= 0xFF
        victim.write_bytes(raw)
        assert corpus_cli(["verify", out]) == 1
        text = capsys.readouterr().out
        assert "CORRUPT" in text and "shard-00001.npy" in text

    def test_unknown_family_is_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            corpus_cli(["build", "--out", str(tmp_path / "c"), "--families", "nope"])
