"""Pipelined pre-training: the batch-producer ring and its determinism claims.

Three families of tests:

* **RingArena units** — slot wraparound and reuse, the acquire/release
  backpressure handshake, zero-copy descriptor views and the oversize
  (pickle) fallback of the bounded slot writer;
* **ProducerPool behaviour** — stream ordering, crash propagation with the
  remote traceback, elastic resize, idempotent close;
* **Bit-identity** — the central claim of the produce stage: with per-step
  streams keyed by ``SeedSequence([seed, epoch, step])``, the float64 loss
  curve is *bit-identical* (``==`` on floats, no tolerance) between producing
  inline on the parent (``n_producers=0``) and producer processes at any
  ``(n_producers, prefetch_depth)``, for AimTS and for every SSL baseline.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    TNC,
    TSTCC,
    BaselineConfig,
    MomentLike,
    SimCLR,
    TLoss,
    TS2Vec,
    UniTSLike,
)
from repro.core.config import AimTSConfig
from repro.core.pretrainer import AimTSPretrainer
from repro.engine import Callback, Trainer, TrainLoop
from repro.engine.parallel import (
    ProducerPool,
    RingArena,
    WorkerError,
    _decode_batch,
    _encode_batch,
    derive_step_seed,
)
from repro.nn import Adam, Linear, Tensor

TINY = dict(
    repr_dim=8,
    proj_dim=4,
    hidden_channels=4,
    depth=1,
    panel_size=12,
    series_length=24,
    batch_size=8,
    epochs=2,
    seed=0,
)

BASELINE_TINY = dict(
    repr_dim=8,
    proj_dim=4,
    hidden_channels=4,
    depth=1,
    series_length=24,
    batch_size=8,
    epochs=2,
    seed=0,
)


def tiny_pool(n=16, seed=0):
    return np.random.default_rng(seed).normal(size=(n, 1, TINY["series_length"]))


# --------------------------------------------------------------------------- #
# RingArena units
# --------------------------------------------------------------------------- #


class TestRingArena:
    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError, match="depth"):
            RingArena(1, 64)
        with pytest.raises(ValueError, match="slot_nbytes"):
            RingArena(2, 0)

    def test_slot_size_is_cache_line_aligned(self):
        ring = RingArena(2, 100)
        try:
            assert ring.slot_nbytes == 128
            assert ring.slot_nbytes % RingArena.ALIGN == 0
        finally:
            ring.close(unlink=True)

    def test_slot_of_wraps_around(self):
        ring = RingArena(3, 64)
        try:
            assert [ring.slot_of(step) for step in range(7)] == [0, 1, 2, 0, 1, 2, 0]
        finally:
            ring.close(unlink=True)

    def test_acquire_release_backpressure(self):
        ring = RingArena(2, 64)
        try:
            assert ring.acquire(0) == 0
            assert ring.acquire(1) == 1
            # step 2 maps onto slot 0, which is still busy: backpressure
            assert ring.acquire(2) is None
            assert ring.n_busy == 2
            ring.release(0)
            assert ring.acquire(2) == 0
            ring.release(1)
            ring.release(2)
            assert ring.n_busy == 0
        finally:
            ring.close(unlink=True)

    def test_slot_reuse_after_release_overwrites_in_place(self):
        ring = RingArena(2, 64)
        try:
            first = ring.writer(ring.acquire(0)).write(np.arange(4.0))
            ring.release(0)
            second = ring.writer(ring.acquire(2)).write(np.arange(4.0) + 10.0)
            # same slot, same offset — the ring is bounded, not append-only
            assert first[0] == second[0]
            np.testing.assert_array_equal(ring.view(second), np.arange(4.0) + 10.0)
        finally:
            ring.close(unlink=True)

    def test_view_is_zero_copy(self):
        ring = RingArena(2, 64)
        try:
            descriptor = ring.writer(0).write(np.arange(4.0))
            view = ring.view(descriptor)
            view[0] = 99.0
            np.testing.assert_array_equal(ring.view(descriptor)[0], 99.0)
        finally:
            ring.close(unlink=True)

    def test_writer_rejects_oversize_then_accepts_fitting(self):
        ring = RingArena(2, 64)
        try:
            writer = ring.writer(0)
            assert writer.write(np.zeros(100)) is None  # 800 B > 64 B slot
            assert writer.write(np.zeros(4)) is not None
        finally:
            ring.close(unlink=True)

    def test_writer_bounds_cumulative_slot_usage(self):
        ring = RingArena(2, 64)
        try:
            writer = ring.writer(1)
            assert writer.write(np.zeros(6)) is not None  # 48 of 64 B
            assert writer.write(np.zeros(6)) is None  # would overflow the slot
        finally:
            ring.close(unlink=True)

    def test_attach_maps_the_same_memory(self):
        owner = RingArena(2, 64)
        try:
            attached = RingArena.attach(*owner.spec)
            try:
                descriptor = attached.writer(1).write(np.arange(3.0))
                np.testing.assert_array_equal(owner.view(descriptor), np.arange(3.0))
            finally:
                attached.close(unlink=False)
        finally:
            owner.close(unlink=True)

    def test_encode_decode_roundtrip_through_slot(self):
        ring = RingArena(2, 256)
        try:
            batch = (np.arange(6.0).reshape(2, 3), None, np.ones(2, dtype=np.float32))
            encoded = _encode_batch(batch, ring.writer(1))
            decoded = _decode_batch(encoded, ring._shm.buf, copy=False)
            np.testing.assert_array_equal(decoded[0], batch[0])
            assert decoded[1] is None
            np.testing.assert_array_equal(decoded[2], batch[2])
            # copy=False maps views over the ring; copy=True detaches
            assert decoded[0].base is not None
            assert _decode_batch(encoded, ring._shm.buf, copy=True)[0].base is None
        finally:
            ring.close(unlink=True)


def test_derive_step_seed_is_stable_and_distinct():
    a = np.random.default_rng(derive_step_seed(0, 1, 2)).integers(0, 2**31, 4)
    b = np.random.default_rng(derive_step_seed(0, 1, 2)).integers(0, 2**31, 4)
    c = np.random.default_rng(derive_step_seed(0, 2, 1)).integers(0, 2**31, 4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)  # (epoch, step) is not a flat hash


# --------------------------------------------------------------------------- #
# ProducerPool behaviour
# --------------------------------------------------------------------------- #


class _ScaleProducer:
    """Payload → payload * 2, tagged with the step key (picklable for spawn)."""

    def produce(self, epoch, step, payload):
        return payload * 2.0, np.array([float(epoch), float(step)])


def _scale_factory(producer_index):
    return _ScaleProducer()


class _CrashProducer:
    def produce(self, epoch, step, payload):
        raise ValueError(f"deliberate producer crash at step {step}")


def _crash_factory(producer_index):
    return _CrashProducer()


class TestProducerPool:
    @staticmethod
    def _consume(stream):
        # yielded batches are views into the ring, valid only until the
        # generator is resumed (the consumer contract) — copy while suspended
        return [tuple(np.asarray(part).copy() for part in item) for item in stream]

    def test_stream_yields_in_step_order(self):
        payloads = [np.full(4, float(i)) for i in range(7)]
        with ProducerPool(_scale_factory, n_producers=2, prefetch_depth=3) as pool:
            out = self._consume(pool.stream(5, iter(payloads), slot_nbytes=128))
            assert len(out) == 7
            for step, (doubled, tag) in enumerate(out):
                np.testing.assert_array_equal(np.asarray(doubled), np.full(4, 2.0 * step))
                np.testing.assert_array_equal(np.asarray(tag), [5.0, float(step)])
            stats = pool.last_stream_stats
            assert stats["steps"] == 7
            assert stats["oversize_arrays"] == 0
            assert stats["produce_seconds"] >= 0.0

    def test_oversize_batches_fall_back_to_pickle(self):
        payloads = [np.full(512, float(i)) for i in range(4)]  # 4 KiB each
        with ProducerPool(_scale_factory, n_producers=1, prefetch_depth=2) as pool:
            # a deliberately tiny size hint pins the ring far below 4 KiB slots
            out = self._consume(pool.stream(0, iter(payloads), slot_nbytes=64))
            for step, (doubled, _) in enumerate(out):
                np.testing.assert_array_equal(doubled, np.full(512, 2.0 * step))
            assert pool.last_stream_stats["oversize_arrays"] > 0

    def test_producer_crash_raises_worker_error_and_breaks_pool(self):
        pool = ProducerPool(_crash_factory, n_producers=1, prefetch_depth=2)
        try:
            with pytest.raises(WorkerError, match="deliberate producer crash"):
                list(pool.stream(0, iter([np.zeros(4)])))
            with pytest.raises(RuntimeError, match="broken"):
                list(pool.stream(0, iter([np.zeros(4)])))
        finally:
            pool.close()

    def test_resize_grows_and_shrinks_without_changing_results(self):
        payloads = [np.full(4, float(i)) for i in range(5)]
        with ProducerPool(_scale_factory, n_producers=1, prefetch_depth=2) as pool:
            before = self._consume(pool.stream(0, iter(payloads)))
            pool.resize(3)
            assert pool.n_producers == 3
            grown = self._consume(pool.stream(0, iter(payloads)))
            pool.resize(1)
            assert pool.n_producers == 1
            shrunk = self._consume(pool.stream(0, iter(payloads)))
        for (a, _), (b, _), (c, _) in zip(before, grown, shrunk):
            np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(a, c)

    def test_stream_abandoned_mid_epoch_keeps_pool_usable(self):
        payloads = [np.full(4, float(i)) for i in range(6)]
        with ProducerPool(_scale_factory, n_producers=2, prefetch_depth=2) as pool:
            stream = pool.stream(0, iter(payloads))
            next(stream)
            stream.close()  # consumer bails after one step (e.g. early stop)
            out = self._consume(pool.stream(1, iter(payloads)))
            assert len(out) == 6

    def test_close_is_idempotent(self):
        pool = ProducerPool(_scale_factory, n_producers=1, prefetch_depth=2)
        pool.close()
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            list(pool.stream(0, iter([np.zeros(2)])))

    def test_unpicklable_factory_rejected(self):
        with pytest.raises(ValueError, match="picklable"):
            ProducerPool(lambda index: _ScaleProducer(), n_producers=1)

    def test_pool_validates_knobs(self):
        with pytest.raises(ValueError, match="n_producers"):
            ProducerPool(_scale_factory, n_producers=0)
        with pytest.raises(ValueError, match="prefetch_depth"):
            ProducerPool(_scale_factory, n_producers=1, prefetch_depth=1)


# --------------------------------------------------------------------------- #
# configuration / validation
# --------------------------------------------------------------------------- #


class TestPipelineValidation:
    def test_config_rejects_producers_with_sharded_workers(self):
        with pytest.raises(ValueError, match="n_workers=1"):
            AimTSConfig(**TINY, n_producers=1, n_workers=2)

    def test_config_rejects_single_slot_prefetch(self):
        for prefetch_depth in (0, 1):
            with pytest.raises(ValueError, match="prefetch_depth"):
                BaselineConfig(**BASELINE_TINY, n_producers=1, prefetch_depth=prefetch_depth)

    def test_trainer_rejects_producers_with_worker_pool(self):
        loop = _MiniLoop()
        with pytest.raises(ValueError, match="sequential"):
            Trainer(
                loop,
                Adam(list(loop.parameters()), lr=0.1),
                n_workers=2,
                n_producers=1,
            )

    def test_trainer_rejects_loop_without_producer_factory(self):
        loop = _MiniLoop()
        trainer = Trainer(loop, Adam(list(loop.parameters()), lr=0.1), n_producers=1)
        with pytest.raises(ValueError, match="producer_factory"):
            trainer.fit(1)


class _MiniLoop(TrainLoop):
    def __init__(self):
        self.module = Linear(2, 2, rng=0)

    def named_modules(self):
        return {"module": self.module}

    def make_batches(self, epoch):
        yield np.ones((2, 2))

    def batch_loss(self, batch):
        return (self.module(Tensor(batch)) ** 2).mean()


# --------------------------------------------------------------------------- #
# bit-identity: producing on the parent vs in producer processes
# --------------------------------------------------------------------------- #


def _aimts_losses(n_producers, prefetch_depth):
    config = AimTSConfig(**TINY, n_producers=n_producers, prefetch_depth=prefetch_depth)
    pretrainer = AimTSPretrainer(config)
    history = pretrainer.fit(tiny_pool())
    pretrainer.shutdown_workers()
    return history.total_loss, history.prototype_loss, history.series_image_loss


def _baseline_curve(baseline_cls, **knobs):
    baseline = baseline_cls(BaselineConfig(**BASELINE_TINY, **knobs))
    curve = list(baseline.pretrain(tiny_pool()))
    baseline.shutdown_workers()
    return curve


class TestPipelinedBitIdentity:
    """Float64 losses identical to producing on the parent, ``==`` exact."""

    @pytest.fixture(scope="class")
    def aimts_reference(self):
        return _aimts_losses(n_producers=0, prefetch_depth=2)

    @pytest.mark.parametrize("n_producers", [1, 2])
    @pytest.mark.parametrize("prefetch_depth", [2, 4])
    def test_aimts_pipelined_matches_sequential(
        self, aimts_reference, n_producers, prefetch_depth
    ):
        assert _aimts_losses(n_producers, prefetch_depth) == aimts_reference

    @pytest.mark.parametrize("n_producers,prefetch_depth", [(1, 2), (2, 4)])
    def test_simclr_pipelined_matches_sequential(self, n_producers, prefetch_depth):
        reference = _baseline_curve(SimCLR, n_producers=0)
        pipelined = _baseline_curve(
            SimCLR, n_producers=n_producers, prefetch_depth=prefetch_depth
        )
        assert pipelined == reference

    @pytest.mark.parametrize(
        "baseline_cls",
        [TS2Vec, TNC, TLoss, TSTCC, MomentLike, UniTSLike],
        ids=lambda cls: cls.__name__,
    )
    def test_baseline_pipelined_matches_sequential(self, baseline_cls):
        reference = _baseline_curve(baseline_cls, n_producers=0)
        pipelined = _baseline_curve(baseline_cls, n_producers=1, prefetch_depth=2)
        assert pipelined == reference

    def test_elastic_producers_mid_fit_keep_the_curve(self, aimts_reference):
        class GrowProducers(Callback):
            def on_epoch_end(self, trainer, logs):
                trainer.n_producers = 2  # next epoch resizes the pool

        config = AimTSConfig(**TINY, n_producers=1, prefetch_depth=2)
        pretrainer = AimTSPretrainer(config)
        history = pretrainer.fit(tiny_pool(), callbacks=[GrowProducers()])
        assert pretrainer.trainer.producer_pool.n_producers == 2
        pretrainer.shutdown_workers()
        assert (
            history.total_loss,
            history.prototype_loss,
            history.series_image_loss,
        ) == aimts_reference

    def test_profiler_reports_produce_phases(self):
        # the parent's produce stage still reports its render and augment
        # time as phases of its own, not folded into "fetch"
        pretrainer = AimTSPretrainer(AimTSConfig(**TINY, n_producers=0))
        pretrainer.profile = True
        pretrainer.fit(tiny_pool())
        history = pretrainer.trainer.history
        for phase in ("render", "augment"):
            curve = history.curve(f"profile_{phase}_seconds")
            assert len(curve) == TINY["epochs"]
            assert all(seconds > 0.0 for seconds in curve), phase

    def test_pipeline_stats_recorded_per_epoch(self):
        config = AimTSConfig(**TINY, n_producers=1, prefetch_depth=2)
        pretrainer = AimTSPretrainer(config)
        pretrainer.fit(tiny_pool())
        trainer = pretrainer.trainer
        pretrainer.shutdown_workers()
        assert [entry["epoch"] for entry in trainer.pipeline_stats] == [0, 1]
        summary = trainer.pipeline_summary()
        assert summary["steps"] == trainer.state.step
        assert summary["producer_occupancy"] >= 0.0
        assert summary["consumer_stall_seconds"] >= 0.0

    def test_producer_pool_reused_across_fits(self):
        config = AimTSConfig(**TINY, n_producers=1, prefetch_depth=2)
        pretrainer = AimTSPretrainer(config)
        pretrainer.fit(tiny_pool())
        pool = pretrainer._producer_pool
        assert pool is not None
        pretrainer.fit(tiny_pool())
        assert pretrainer._producer_pool is pool
        pretrainer.shutdown_workers()
        assert pretrainer._producer_pool is None
