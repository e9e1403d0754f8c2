"""Tests for the cross-epoch render cache and its pre-training integration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import AimTSConfig
from repro.core.pretrainer import AimTSPretrainer
from repro.imaging import LineChartRenderer, RenderCache, content_hash


@pytest.fixture
def renderer() -> LineChartRenderer:
    return LineChartRenderer(panel_size=16)


@pytest.fixture
def pool(rng) -> np.ndarray:
    return rng.normal(size=(12, 1, 32))


class TestRenderCacheBasics:
    def test_precompute_then_all_hits(self, renderer, pool):
        cache = RenderCache(renderer)
        stats = cache.precompute_pool(pool)
        assert stats["entries"] == pool.shape[0]
        assert stats["rendered_samples"] == pool.shape[0]
        indices = np.array([3, 0, 7])
        images = cache.get_batch(pool[indices], indices)
        np.testing.assert_array_equal(images, renderer.render_batch(pool[indices]))
        assert cache.hits == 3 and cache.misses == 0
        assert cache.hit_rate == 1.0
        # a second epoch re-renders nothing
        cache.get_batch(pool[indices], indices)
        assert cache.rendered_samples == pool.shape[0]

    def test_cold_lookup_is_a_miss_then_a_hit(self, renderer, pool):
        # a lookup outside the table renders every time and never fills it
        cache = RenderCache(renderer)
        indices = np.array([1, 2])
        images = cache.get_batch(pool[indices], indices)
        np.testing.assert_array_equal(images, renderer.render_batch(pool[indices]))
        assert (cache.hits, cache.misses) == (0, 2)
        cache.get_batch(pool[indices], indices)
        assert (cache.hits, cache.misses) == (0, 4)
        assert len(cache) == 0 and cache.nbytes == 0
        assert cache.rendered_samples == 4

    def test_content_hash_mismatch_triggers_rerender(self, renderer, pool):
        cache = RenderCache(renderer)
        cache.precompute_pool(pool)
        changed = pool[[0]] + 1.0  # same index, different content
        images = cache.get_batch(changed, np.array([0]))
        assert cache.misses == 1
        np.testing.assert_array_equal(images, renderer.render_batch(changed))
        # the table is read-only: the stale lookup misses again
        cache.get_batch(changed, np.array([0]))
        assert cache.misses == 2
        # and the original row still hits its entry
        original = cache.get_batch(pool[[0]], np.array([0]))
        np.testing.assert_array_equal(original, renderer.render_batch(pool[[0]]))
        assert (cache.hits, cache.misses) == (1, 2)

    def test_content_hash_distinguishes_values_and_shapes(self):
        a = np.zeros((2, 8))
        assert content_hash(a) == content_hash(a.copy())
        assert content_hash(a) != content_hash(np.ones((2, 8)))
        assert content_hash(a) != content_hash(np.zeros((4, 4)))

    def test_content_hash_is_dtype_canonical(self, renderer):
        # a pool and its loader-promoted batches must hash identically
        ints = np.arange(8).reshape(1, 8)
        assert content_hash(ints) == content_hash(ints.astype(np.float64))
        assert content_hash(ints.astype(np.float32)) == content_hash(ints.astype(np.float64))
        pool = np.arange(24).reshape(3, 1, 8)  # int pool
        cache = RenderCache(renderer)
        cache.precompute_pool(pool)
        cache.get_batch(pool[:2].astype(np.float64), np.arange(2))
        assert cache.misses == 0 and cache.hits == 2

    def test_rows_are_keyed_as_the_renderer_reads_them(self, pool):
        # a float64 pool fills the table that its float32 batches hit
        renderer = LineChartRenderer(panel_size=16, dtype="float32")
        cache = RenderCache(renderer)
        cache.precompute_pool(pool)
        rows = pool[:3].astype(np.float32)
        images = cache.get_batch(rows, np.arange(3))
        assert (cache.hits, cache.misses) == (3, 0)
        np.testing.assert_array_equal(images, renderer.render_batch(rows))

    def test_input_validation(self, renderer, pool):
        with pytest.raises(ValueError):
            RenderCache(renderer, max_bytes=0)
        cache = RenderCache(renderer)
        with pytest.raises(ValueError):
            cache.precompute_pool(pool[0])
        with pytest.raises(ValueError):
            cache.get_batch(pool[:2], np.array([0, 1, 2]))


class TestRenderCacheEviction:
    """The byte budget bounds the fill; nothing is evicted or inserted later."""

    def test_precompute_caches_only_the_budgeted_prefix(self, renderer, pool):
        image_nbytes = renderer.render_batch(pool[:1]).nbytes
        cache = RenderCache(renderer, max_bytes=4 * image_nbytes)
        stats = cache.precompute_pool(pool)
        assert stats["entries"] == 4
        assert cache.nbytes == 4 * image_nbytes <= cache.max_bytes
        # nothing beyond the budget was rasterised up front
        assert stats["rendered_samples"] == 4
        # the prefix hits; lookups beyond the budget never grow the table
        cache.get_batch(pool[2:8], np.arange(2, 8))
        assert (cache.hits, cache.misses) == (2, 4)
        assert len(cache) == 4

    def test_insert_on_miss_false_freezes_the_prefix(self, renderer, pool):
        image_nbytes = renderer.render_batch(pool[:1]).nbytes
        cache = RenderCache(renderer, max_bytes=4 * image_nbytes)
        cache.precompute_pool(pool)
        for _ in range(2):  # a second epoch misses the same rows again
            cache.get_batch(pool[2:8], np.arange(2, 8))
        assert (cache.hits, cache.misses) == (4, 8)
        assert cache.stats()["entries"] == 4 and cache.nbytes == 4 * image_nbytes
        assert cache.rendered_samples == 4 + 8
        # a stale cached index is rendered on every lookup, never refreshed
        cache.get_batch(pool[[0]] + 1.0, np.array([0]))
        cache.get_batch(pool[[0]] + 1.0, np.array([0]))
        assert cache.misses == 10

    def test_oversized_image_is_not_cached(self, renderer, pool):
        cache = RenderCache(renderer, max_bytes=8)  # smaller than any image
        cache.precompute_pool(pool)
        assert len(cache) == 0
        cache.get_batch(pool[:2], np.arange(2))
        assert len(cache) == 0 and cache.misses == 2

    def test_corpus_fill_matches_the_materialized_pool(self, renderer, tmp_path):
        from repro.data.corpus import build_synthetic_corpus

        corpus = build_synthetic_corpus(
            tmp_path / "c", ["ecg", "motion"], 30, length=32, shard_size=7, seed=3
        )
        image_nbytes = renderer.image_nbytes(1)
        from_corpus = RenderCache(renderer, max_bytes=20 * image_nbytes)
        from_array = RenderCache(renderer, max_bytes=20 * image_nbytes)
        # chunks smaller than a shard and not aligned to shard boundaries
        from_corpus.precompute_pool(corpus, chunk_size=6)
        from_array.precompute_pool(corpus.materialize(), chunk_size=6)
        assert len(from_corpus) == len(from_array) == 20
        assert from_corpus._hashes == from_array._hashes
        for index, image in from_array._images.items():
            np.testing.assert_array_equal(from_corpus._images[index], image)


class TestPretrainerCacheIntegration:
    def _config(self, **overrides) -> AimTSConfig:
        base = dict(
            repr_dim=16,
            proj_dim=8,
            hidden_channels=8,
            depth=1,
            panel_size=16,
            series_length=32,
            batch_size=8,
            epochs=2,
            seed=0,
            use_prototype_loss=False,
        )
        base.update(overrides)
        return AimTSConfig(**base)

    def test_cached_fit_matches_uncached_losses_exactly(self, rng):
        pool = rng.normal(size=(20, 1, 32))
        cached = AimTSPretrainer(self._config(cache_images=True)).fit(pool.copy())
        uncached = AimTSPretrainer(self._config(cache_images=False)).fit(pool.copy())
        assert cached.series_image_loss == uncached.series_image_loss
        assert cached.total_loss == uncached.total_loss

    def test_fit_renders_each_pool_sample_once(self, rng):
        pool = rng.normal(size=(20, 1, 32))
        pretrainer = AimTSPretrainer(self._config(cache_images=True))
        pretrainer.fit(pool)
        stats = pretrainer.render_cache.stats()
        assert stats["rendered_samples"] == pool.shape[0]
        assert stats["misses"] == 0
        assert stats["hit_rate"] == 1.0
        # both epochs were served from the cache
        assert stats["hits"] == 2 * pool.shape[0]

    def test_cache_disabled_leaves_no_cache(self, rng):
        pool = rng.normal(size=(12, 1, 32))
        pretrainer = AimTSPretrainer(self._config(cache_images=False))
        pretrainer.fit(pool)
        assert pretrainer.render_cache is None

    def test_cache_budget_config_is_honoured(self, rng):
        pool = rng.normal(size=(12, 1, 32))
        image_nbytes = 3 * 16 * 16 * 8
        pretrainer = AimTSPretrainer(
            self._config(cache_images=True, cache_max_bytes=4 * image_nbytes)
        )
        history = pretrainer.fit(pool)
        assert pretrainer.render_cache.nbytes <= 4 * image_nbytes
        # a budget smaller than the pool holds exactly the prefix it fits
        assert pretrainer.render_cache.stats()["entries"] == 4
        assert len(history.series_image_loss) == 2

    def test_default_cache_budget_is_finite(self):
        assert AimTSConfig().cache_max_bytes == 256 * 1024 * 1024

    def test_float32_image_dtype_pipeline(self, rng):
        pool = rng.normal(size=(12, 1, 32))
        pretrainer = AimTSPretrainer(self._config(compute_dtype="float32"))
        history = pretrainer.fit(pool)
        assert pretrainer.renderer.dtype == np.float32
        assert np.isfinite(history.series_image_loss).all()
