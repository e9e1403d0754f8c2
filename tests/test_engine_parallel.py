"""Sharded data-parallel training: flat packing, sharding and the worker pool.

The spawn-based smoke tests use deliberately tiny models/pools so tier-1
stays fast; the heavier determinism claims (multi-worker runs reproducible at
a fixed worker count, ``n_workers=1`` bit-identical to the sequential
trainer) are asserted on the real AimTS pre-training objective.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.base import BaselineConfig
from repro.baselines.simclr import SimCLR
from repro.core.config import AimTSConfig
from repro.core.pretrainer import AimTSPretrainer
from repro.engine import Trainer, TrainLoop, shard_arrays
from repro.engine.parallel import (
    GradientWorkerPool,
    RingArena,
    WorkerError,
    _decode_batch,
    _encode_batch,
)
from repro.nn import Adam, Linear, Tensor
from repro.nn.flat import FlatLayout
from repro.nn.tensor import default_dtype

TINY = dict(
    repr_dim=8,
    proj_dim=4,
    hidden_channels=4,
    depth=1,
    panel_size=12,
    series_length=24,
    batch_size=8,
    epochs=1,
    seed=0,
)


BASELINE_TINY = {k: v for k, v in TINY.items() if k != "panel_size"}


def tiny_pool(n=16, seed=0):
    return np.random.default_rng(seed).normal(size=(n, 1, TINY["series_length"]))


# --------------------------------------------------------------------------- #
# flat packing
# --------------------------------------------------------------------------- #
class TestFlatLayout:
    def _model(self, dtype=np.float64):
        with default_dtype(dtype):
            return Linear(4, 3, rng=0)

    def test_pack_unpack_roundtrip(self):
        model = self._model()
        layout = FlatLayout(model.parameters())
        buffers = layout.allocate()
        layout.pack_data(buffers)
        original = {name: p.data.copy() for name, p in model.named_parameters()}
        for param in model.parameters():
            param.data += 1.0
        layout.unpack_data(buffers)
        for name, param in model.named_parameters():
            np.testing.assert_array_equal(param.data, original[name])

    def test_unpack_preserves_array_identity(self):
        model = self._model()
        layout = FlatLayout(model.parameters())
        buffers = layout.allocate()
        layout.pack_data(buffers)
        before = [id(p.data) for p in model.parameters()]
        layout.unpack_data(buffers)
        assert [id(p.data) for p in model.parameters()] == before

    def test_one_buffer_per_dtype_no_upcast(self):
        model = self._model(np.float32)
        layout = FlatLayout(model.parameters())
        assert set(layout.sizes) == {"float32"}
        assert layout.allocate()["float32"].dtype == np.float32

    def test_grad_pack_none_is_zero(self):
        model = self._model()
        layout = FlatLayout(model.parameters())
        buffers = layout.allocate()
        buffers["float64"][:] = 7.0
        layout.pack_grads(buffers)
        assert np.all(buffers["float64"] == 0.0)

    def test_reduce_grads_fixed_order_weighted(self):
        model = self._model()
        layout = FlatLayout(model.parameters())
        a, b = layout.allocate(), layout.allocate()
        a["float64"][:] = 2.0
        b["float64"][:] = 4.0
        layout.reduce_grads([a, b], [0.25, 0.75])
        for param in model.parameters():
            np.testing.assert_allclose(param.grad, 2.0 * 0.25 + 4.0 * 0.75)

    def test_reduce_grads_accumulates(self):
        model = self._model()
        layout = FlatLayout(model.parameters())
        a = layout.allocate()
        a["float64"][:] = 1.0
        layout.reduce_grads([a], [1.0])
        layout.reduce_grads([a], [1.0], accumulate=True)
        for param in model.parameters():
            np.testing.assert_allclose(param.grad, 2.0)

    def test_signature_detects_mismatch(self):
        assert FlatLayout(self._model().parameters()).signature() != FlatLayout(
            Linear(5, 3, rng=0).parameters()
        ).signature()

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FlatLayout([])


# --------------------------------------------------------------------------- #
# sharding + batch transport
# --------------------------------------------------------------------------- #
class TestShardArrays:
    def test_even_split(self):
        shards = shard_arrays(np.arange(12).reshape(12, 1), 3)
        assert [weight for _, weight in shards] == [4, 4, 4]
        np.testing.assert_array_equal(
            np.concatenate([sub for sub, _ in shards]), np.arange(12).reshape(12, 1)
        )

    def test_tuple_batch_with_none(self):
        X = np.arange(20).reshape(10, 2)
        shards = shard_arrays((X, None), 2)
        assert len(shards) == 2
        for (sub_x, sub_none), weight in shards:
            assert sub_none is None
            assert sub_x.shape[0] == weight == 5

    def test_min_samples_shrinks_shard_count(self):
        shards = shard_arrays(np.zeros((5, 1)), 4, min_samples=2)
        assert [w for _, w in shards] == [2, 3]
        assert all(w >= 2 for _, w in shards)

    def test_single_shard_when_batch_too_small(self):
        shards = shard_arrays(np.zeros((3, 1)), 2, min_samples=2)
        assert len(shards) == 1 and shards[0][1] == 3

    def test_labels_split_alongside(self):
        X, y = np.zeros((6, 1, 4)), np.arange(6)
        shards = shard_arrays((X, y), 2)
        np.testing.assert_array_equal(shards[1][0][1], np.arange(3, 6))

    def test_rejects_batch_without_arrays(self):
        with pytest.raises(ValueError):
            shard_arrays((None, 3), 2)


class TestBatchTransport:
    def test_roundtrip_through_arena(self):
        ring = RingArena(2, 256)
        try:
            batch = (np.arange(12.0).reshape(3, 4), None, np.float32(2.5))
            encoded = _encode_batch(batch, ring.writer(0))
            decoded = _decode_batch(encoded, ring._shm.buf)
            np.testing.assert_array_equal(decoded[0], batch[0])
            assert decoded[1] is None and decoded[2] == np.float32(2.5)
        finally:
            ring.close(unlink=True)

    def test_overflow_falls_back_to_pickle(self):
        ring = RingArena(2, 16)
        try:
            big = np.zeros((64, 64))
            encoded = _encode_batch(big, ring.writer(0))
            assert encoded[0] == "pickle"
            np.testing.assert_array_equal(_decode_batch(encoded, None), big)
        finally:
            ring.close(unlink=True)

    def test_decoded_arrays_are_copies(self):
        ring = RingArena(2, 256)
        try:
            encoded = _encode_batch(np.ones(4), ring.writer(0))
            decoded = _decode_batch(encoded, ring._shm.buf)
            _encode_batch(np.zeros(4), ring.writer(0))  # the next step rewrites the slot
            np.testing.assert_array_equal(decoded, np.ones(4))
        finally:
            ring.close(unlink=True)


# --------------------------------------------------------------------------- #
# worker pool smoke tests (spawn-safe, tiny models — tier-1)
# --------------------------------------------------------------------------- #
class TestParallelPretrainSmoke:
    def test_two_worker_pretrain_runs_and_is_deterministic(self):
        """The PR 5 tier-1 smoke test: n_workers=2, spawn, tiny pool."""
        def run():
            pretrainer = AimTSPretrainer(AimTSConfig(**TINY, n_workers=2))
            history = pretrainer.fit(tiny_pool())
            weights = pretrainer.ts_encoder.state_dict()
            pretrainer.shutdown_workers()
            return history.total_loss, weights

        losses_a, weights_a = run()
        losses_b, weights_b = run()
        assert len(losses_a) == 1 and np.isfinite(losses_a).all()
        assert losses_a == losses_b  # deterministic at a fixed worker count
        for key in weights_a:
            np.testing.assert_array_equal(weights_a[key], weights_b[key])

    def test_n_workers_1_bit_identical_to_sequential(self):
        sequential = AimTSPretrainer(AimTSConfig(**TINY))
        explicit = AimTSPretrainer(AimTSConfig(**TINY, n_workers=1))
        curve_a = sequential.fit(tiny_pool()).total_loss
        curve_b = explicit.fit(tiny_pool()).total_loss
        assert curve_a == curve_b

    def test_pool_reused_across_fits(self):
        pretrainer = AimTSPretrainer(AimTSConfig(**TINY, n_workers=2))
        pretrainer.fit(tiny_pool())
        first_pool = pretrainer._worker_pool
        assert first_pool is not None
        pretrainer.fit(tiny_pool())
        assert pretrainer._worker_pool is first_pool
        pretrainer.shutdown_workers()
        assert pretrainer._worker_pool is None

    def test_baseline_two_worker_pretrain(self):
        baseline = SimCLR(
            BaselineConfig(
                repr_dim=8,
                proj_dim=4,
                hidden_channels=4,
                depth=1,
                series_length=24,
                batch_size=8,
                epochs=1,
                seed=0,
                n_workers=2,
            )
        )
        curve = baseline.pretrain(tiny_pool())
        baseline.shutdown_workers()
        assert len(curve) == 1 and np.isfinite(curve).all()


class TestWorkerRing:
    def test_regrown_ring_keeps_gradients_and_unlinks_the_old_segment(self):
        # in a fit the first batch is the largest, so only direct steps reach
        # the regrow path: pool A grows from an 8- to a 64-sample batch, pool
        # B starts at 64 samples, and the same shards must give the same
        # gradient bit for bit
        from repro.core.pretrainer import _PretrainLoop

        pretrainer = AimTSPretrainer(AimTSConfig(**TINY))
        loop = _PretrainLoop(pretrainer)
        producer = loop.producer_factory()(0)
        parameters = list(pretrainer.parameters())

        def produced_shards(n, seed):
            batch = producer.produce(0, 0, (np.arange(n), tiny_pool(n, seed=seed)))
            return loop.shard_batch(batch, 2)

        small = produced_shards(8, seed=1)
        large = produced_shards(64, seed=2)

        def make_pool():
            return GradientWorkerPool(loop.worker_factory(), parameters, n_workers=2)

        with make_pool() as pool_a:
            pool_a.step(small)
            outgrown = pool_a._ring.spec
            pool_a.step(large)
            assert pool_a._ring.slot_nbytes > outgrown[2]
            with pytest.raises(FileNotFoundError):
                RingArena.attach(*outgrown)
            grads_a = [param.grad.tobytes() for param in parameters]
        with make_pool() as pool_b:
            pool_b.step(large)
            grads_b = [param.grad.tobytes() for param in parameters]
        assert grads_a == grads_b


class TestTrainerValidation:
    def test_rejects_nonpositive_workers(self):
        pretrainer = AimTSPretrainer(AimTSConfig(**TINY))
        with pytest.raises(ValueError):
            Trainer(
                object.__new__(TrainLoop),
                Adam(list(pretrainer.parameters()), lr=1e-3),
                n_workers=0,
            )

    def test_loop_without_factory_rejected(self):
        class NoFactoryLoop(TrainLoop):
            def __init__(self):
                with default_dtype(np.float64):
                    self.model = Linear(3, 2, rng=0)

            def named_modules(self):
                return {"model": self.model}

            def make_batches(self, epoch):
                yield np.zeros((2, 3))

            def batch_loss(self, batch):
                return (self.model(Tensor(batch)) ** 2).mean()

        loop = NoFactoryLoop()
        trainer = Trainer(loop, Adam(list(loop.parameters()), lr=1e-3), n_workers=2)
        with pytest.raises(ValueError, match="worker_factory"):
            trainer.fit(1)

    def test_unpicklable_factory_rejected(self):
        model = Linear(3, 2, rng=0)
        with pytest.raises(ValueError, match="picklable"):
            GradientWorkerPool(
                lambda: None,
                list(model.parameters()),
                n_workers=2,
            )

    def test_pool_requires_two_workers(self):
        from repro.core.pretrainer import _PretrainLoop

        pretrainer = AimTSPretrainer(AimTSConfig(**TINY))
        with pytest.raises(ValueError, match="n_workers"):
            GradientWorkerPool(
                _PretrainLoop(pretrainer).worker_factory(),
                list(pretrainer.parameters()),
                n_workers=1,
            )

    def test_worker_error_surfaces_remote_traceback_and_breaks_pool(self):
        pretrainer = AimTSPretrainer(AimTSConfig(**TINY, n_workers=2))
        pretrainer.fit(tiny_pool())
        pool = pretrainer._worker_pool
        with pytest.raises(WorkerError, match="worker"):
            # a malformed shard (2-D series) makes the replica loss raise;
            # the pool must surface the remote traceback, not hang
            pool.step([(np.zeros((4, TINY["series_length"])), 4)])
        # stale in-flight replies could pair old gradients with a new batch,
        # so the pool refuses further steps after any worker error
        with pytest.raises(RuntimeError, match="broken"):
            pool.step([(tiny_pool(4), 4)])
        pretrainer.shutdown_workers()


class TestReviewRegressions:
    """Regression coverage for the PR 5 review findings."""

    def test_sequential_resume_does_not_warn(self, tmp_path):
        import warnings

        from repro.engine import Checkpointer

        pretrainer = AimTSPretrainer(AimTSConfig(**TINY))
        path = tmp_path / "ckpt.npz"
        pretrainer.fit(tiny_pool(), callbacks=[Checkpointer(path)])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            AimTSPretrainer(AimTSConfig(**TINY)).fit(
                tiny_pool(), epochs=1, resume_from=path
            )

    def test_parallel_fit_syncs_bn_running_stats_to_parent(self):
        # the image encoder carries the BatchNorm layers; its running stats
        # only advance inside the workers and must land on the parent
        pretrainer = AimTSPretrainer(AimTSConfig(**TINY, n_workers=2))
        fresh = {
            key: value.copy()
            for key, value in pretrainer.image_encoder.state_dict().items()
            if "running" in key
        }
        assert fresh  # the image encoder does have BN buffers to sync
        pretrainer.fit(tiny_pool())
        after = pretrainer.image_encoder.state_dict()
        assert any(
            not np.array_equal(after[key], fresh[key]) for key in fresh
        ), "parent BN running stats never left their initial values"
        # and they match worker 0's replica exactly
        pool = pretrainer._worker_pool
        pool._command_queues[0].put(("buffers",))
        payload = pool._collect({0: "buffers"})[0]
        for key, value in payload.items():
            prefix = "image_encoder."
            if key.startswith(prefix) and "running" in key:
                np.testing.assert_array_equal(after[key[len(prefix) :]], value)
        pretrainer.shutdown_workers()

    def test_apply_module_buffers_targets_buffers_only(self):
        from repro.engine.parallel import _apply_module_buffers, _module_buffer_state
        from repro.nn import BatchNorm1d, Conv1d, Sequential

        with default_dtype(np.float64):
            model = Sequential(Conv1d(2, 3, 3, rng=0), BatchNorm1d(3))
        weights_before = {k: v.copy() for k, v in model.state_dict().items()}
        buffer_keys = set(_module_buffer_state({"m": model}))
        updates = {
            key[len("m.") :]: np.full_like(value, 0.25)
            for key, value in _module_buffer_state({"m": model}).items()
            if "running" in key
        }
        _apply_module_buffers(model, updates)
        after = model.state_dict()
        for key, value in after.items():
            if f"m.{key}" in buffer_keys and "running" in key:
                np.testing.assert_array_equal(value, 0.25)
            elif "num_batches" not in key:
                np.testing.assert_array_equal(value, weights_before[key])


def _module_states(named_modules) -> dict:
    return {
        f"{name}.{key}": value
        for name, module in named_modules.items()
        for key, value in module.state_dict().items()
    }


def _aimts_sharded_run(tmp_path, *, epochs, resume_from=None, checkpoint=False):
    """A 2-worker TINY AimTS fit: (loss curves, every module state entry)."""
    from repro.engine import Checkpointer

    pretrainer = AimTSPretrainer(AimTSConfig(**TINY, n_workers=2))
    callbacks = [Checkpointer(tmp_path / "aimts_ck")] if checkpoint else []
    history = pretrainer.fit(
        tiny_pool(), epochs=epochs, callbacks=callbacks, resume_from=resume_from
    )
    pretrainer.shutdown_workers()
    curves = (history.total_loss, history.prototype_loss, history.series_image_loss)
    return curves, _module_states(pretrainer.trainer.loop.named_modules())


def _ts2vec_sharded_run(tmp_path, *, epochs, resume_from=None, checkpoint=False):
    """A 2-worker TS2Vec fit through the trainer: (loss curve, module states)."""
    from repro.baselines.base import _BaselinePretrainLoop
    from repro.baselines.ts2vec import TS2Vec
    from repro.data.loaders import z_normalize
    from repro.engine import Checkpointer

    baseline = TS2Vec(BaselineConfig(**BASELINE_TINY, n_workers=2))
    loop = _BaselinePretrainLoop(baseline, z_normalize(tiny_pool()))
    trainer = Trainer(
        loop,
        Adam(list(baseline.parameters()), lr=baseline.config.learning_rate),
        n_workers=2,
        callbacks=[Checkpointer(tmp_path / "ts2vec_ck")] if checkpoint else [],
    )
    if resume_from is not None:
        trainer.load_checkpoint(resume_from)
    history = trainer.fit(epochs)
    return history.curve("loss"), _module_states(loop.named_modules())


class TestShardedResume:
    """A 2-worker run resumed from a checkpoint is the uninterrupted run."""

    @pytest.fixture(scope="class")
    def aimts(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("sharded_resume")
        uninterrupted = _aimts_sharded_run(tmp_path, epochs=2)
        _aimts_sharded_run(tmp_path, epochs=1, checkpoint=True)
        return tmp_path, uninterrupted

    def test_sharded_resume_is_bit_identical(self, aimts, tmp_path):
        import warnings

        aimts_dir, (aimts_curves, aimts_states) = aimts
        ts2vec_curve, ts2vec_states = _ts2vec_sharded_run(tmp_path, epochs=2)
        _ts2vec_sharded_run(tmp_path, epochs=1, checkpoint=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            resumed = [
                _aimts_sharded_run(aimts_dir, epochs=2, resume_from=aimts_dir / "aimts_ck"),
                _ts2vec_sharded_run(tmp_path, epochs=2, resume_from=tmp_path / "ts2vec_ck"),
            ]
        for (curves, states), (reference_curves, reference_states) in zip(
            resumed, [(aimts_curves, aimts_states), (ts2vec_curve, ts2vec_states)]
        ):
            assert curves == reference_curves
            assert states.keys() == reference_states.keys()
            for key, value in states.items():  # BN running stats included
                np.testing.assert_array_equal(value, reference_states[key], err_msg=key)

    def test_workers_start_from_restored_bn_running_stats(self, aimts, tmp_path):
        from repro.api.bundle import load_bundle, save_bundle

        aimts_dir, _ = aimts
        arrays, manifest = load_bundle(aimts_dir / "aimts_ck")
        doctored = {
            key: value * 100.0 if key.endswith("running_var") else value
            for key, value in arrays.items()
        }
        save_bundle(tmp_path / "doctored_ck", doctored, manifest)

        _, as_written = _aimts_sharded_run(
            aimts_dir, epochs=2, resume_from=aimts_dir / "aimts_ck"
        )
        _, from_doctored = _aimts_sharded_run(
            tmp_path, epochs=2, resume_from=tmp_path / "doctored_ck"
        )
        running_vars = [key for key in as_written if key.endswith("running_var")]
        assert running_vars
        for key in running_vars:
            # the parent adopts worker 0's running stats after the epoch; they
            # continue from the checkpoint's, not from initialisation
            assert not np.array_equal(from_doctored[key], as_written[key]), key


# --------------------------------------------------------------------------- #
# shutdown lifecycle: idempotent no-ops + atexit safety net (ISSUE 6)
# --------------------------------------------------------------------------- #
class TestShutdownLifecycle:
    def test_shutdown_unstarted_estimators_is_silent_noop(self):
        # never-fitted pretrainer / baseline / facade: no pool exists yet
        from repro.core.model import AimTS

        AimTSPretrainer(AimTSConfig(**TINY, n_workers=2)).shutdown_workers()
        AimTS(AimTSConfig(**TINY, n_workers=2)).shutdown_workers()
        baseline = SimCLR(
            BaselineConfig(
                repr_dim=8, proj_dim=4, hidden_channels=4, depth=1,
                series_length=24, batch_size=8, epochs=1, seed=0, n_workers=2,
            )
        )
        baseline.shutdown_workers()

    def test_double_shutdown_is_silent_noop(self):
        pretrainer = AimTSPretrainer(AimTSConfig(**TINY, n_workers=2))
        pretrainer.fit(tiny_pool())
        pretrainer.shutdown_workers()
        pretrainer.shutdown_workers()  # second call: nothing to do, no raise
        assert pretrainer._worker_pool is None

    def test_pool_close_is_idempotent(self):
        pretrainer = AimTSPretrainer(AimTSConfig(**TINY, n_workers=2))
        pretrainer.fit(tiny_pool())
        pool = pretrainer._worker_pool
        pool.close()
        pool.close()  # direct double-close on the pool itself
        assert pool._closed

    def test_pool_registers_and_unregisters_atexit(self, monkeypatch):
        import atexit

        registered: list = []
        real_register, real_unregister = atexit.register, atexit.unregister

        def recording_register(func, *args, **kwargs):
            registered.append(func)
            return real_register(func, *args, **kwargs)

        def recording_unregister(func):
            while func in registered:  # equality, like atexit itself
                registered.remove(func)
            return real_unregister(func)

        monkeypatch.setattr(atexit, "register", recording_register)
        monkeypatch.setattr(atexit, "unregister", recording_unregister)
        pretrainer = AimTSPretrainer(AimTSConfig(**TINY, n_workers=2))
        pretrainer.fit(tiny_pool())
        pool = pretrainer._worker_pool
        # registered at construction: an abandoned interpreter closes the
        # pool instead of hanging on live worker processes / queue feeders
        assert pool.close in registered
        pool.close()
        # close() unregistered itself, so interpreter shutdown never calls
        # into an already-dead pool
        assert pool.close not in registered
