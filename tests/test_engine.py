"""Unit tests for the unified training engine (``repro.engine``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.bundle import BundleFormatError
from repro.api.registry import load_estimator
from repro.engine import (
    Callback,
    Checkpointer,
    DtypePolicy,
    EarlyStopping,
    GradAccumulation,
    GradClip,
    History,
    LossHistory,
    LRSchedulerCallback,
    ProgressLogger,
    Trainer,
    TrainLoop,
    TrainState,
    get_rng_state,
    set_rng_state,
)
from repro.nn import SGD, Adam, Linear, StepLR, Tensor
from repro.nn import functional as F
from repro.utils.seeding import new_rng


class ToyLoop(TrainLoop):
    """Least-squares regression on fixed synthetic data."""

    def __init__(self, *, seed: int = 0, n: int = 8, d: int = 3, batch_size: int = 4):
        data_rng = np.random.default_rng(42)
        self.X = data_rng.normal(size=(n, d))
        self.y = self.X @ data_rng.normal(size=(d, 1))
        self.model = Linear(d, 1, rng=7)
        self.batch_size = batch_size
        self.rng = new_rng(seed)

    def named_modules(self):
        return {"model": self.model}

    def named_rngs(self):
        return {"loop": self.rng}

    def make_batches(self, epoch):
        order = np.arange(self.X.shape[0])
        self.rng.shuffle(order)
        for start in range(0, order.size, self.batch_size):
            index = order[start : start + self.batch_size]
            yield self.X[index], self.y[index]

    def batch_loss(self, batch):
        X, y = batch
        return F.mse_loss(self.model(Tensor(X)), y)


def make_trainer(loop=None, *, callbacks=(), lr=0.05, optimizer_cls=Adam, **kwargs):
    loop = loop or ToyLoop()
    optimizer = optimizer_cls(list(loop.parameters()), lr=lr)
    return Trainer(loop, optimizer, callbacks=list(callbacks), **kwargs)


class RecordingCallback(Callback):
    """Records every event emission for ordering assertions."""

    def __init__(self):
        self.events: list[str] = []

    def on_fit_start(self, trainer):
        self.events.append("fit_start")

    def on_epoch_start(self, trainer, epoch):
        self.events.append(f"epoch_start:{epoch}")

    def on_batch_end(self, trainer, logs):
        self.events.append("batch_end")

    def on_backward_end(self, trainer):
        self.events.append("backward_end")

    def on_epoch_end(self, trainer, logs):
        self.events.append(f"epoch_end:{trainer.state.epoch}")

    def on_fit_end(self, trainer):
        self.events.append("fit_end")


class TestHistory:
    def test_append_and_last(self):
        history = History()
        history.append({"loss": 1.0, "aux": 2.0})
        history.append({"loss": 0.5, "aux": 1.5})
        assert history.curve("loss") == [1.0, 0.5]
        assert history.last() == {"loss": 0.5, "aux": 1.5}
        assert len(history) == 2
        assert "loss" in history and "missing" not in history

    def test_empty(self):
        history = History()
        assert history.last() == {}
        assert len(history) == 0
        assert history.curve("loss") == []

    def test_load_round_trip(self):
        history = History()
        history.append({"loss": 1.25})
        restored = History().load(history.metrics)
        assert restored.metrics == history.metrics


class TestTrainerFit:
    def test_loss_decreases(self):
        trainer = make_trainer()
        history = trainer.fit(10)
        assert history.curve("loss")[-1] < history.curve("loss")[0]
        assert trainer.state.epoch == 10
        assert trainer.state.step == 10 * 2  # 8 samples / batch 4 = 2 steps/epoch
        assert trainer.state.batch == 10 * 2

    def test_event_order(self):
        recorder = RecordingCallback()
        trainer = make_trainer(ToyLoop(batch_size=8), callbacks=[recorder])
        trainer.fit(2)
        assert recorder.events == [
            "fit_start",
            "epoch_start:0",
            "backward_end",
            "batch_end",
            "epoch_end:1",
            "epoch_start:1",
            "backward_end",
            "batch_end",
            "epoch_end:2",
            "fit_end",
        ]

    def test_history_accumulates_across_fits(self):
        shared = History()
        loop = ToyLoop()
        trainer = make_trainer(loop, callbacks=[LossHistory(shared)])
        trainer.fit(2)
        trainer2 = make_trainer(loop, callbacks=[LossHistory(shared)])
        trainer2.fit(3)
        assert len(shared.curve("loss")) == 5

    def test_bad_batch_loss_rejected(self):
        class BadLoop(ToyLoop):
            def batch_loss(self, batch):
                return 1.0

        with pytest.raises(TypeError):
            make_trainer(BadLoop()).fit(1)

        class NoLossKey(ToyLoop):
            def batch_loss(self, batch):
                return {"total": super().batch_loss(batch)}

        with pytest.raises(KeyError):
            make_trainer(NoLossKey()).fit(1)

    def test_negative_epochs_rejected(self):
        with pytest.raises(ValueError):
            make_trainer().fit(-1)

    def test_learning_rate_logged_before_scheduler_step(self):
        loop = ToyLoop()
        optimizer = Adam(list(loop.parameters()), lr=0.1)
        scheduler = StepLR(optimizer, step_size=1, gamma=0.5)
        trainer = Trainer(loop, optimizer, scheduler=scheduler)
        history = trainer.fit(3)
        # the logged rate is the one the epoch trained with (seed semantics)
        assert history.curve("learning_rate") == pytest.approx([0.1, 0.05, 0.025])
        assert any(isinstance(cb, LRSchedulerCallback) for cb in trainer.callbacks)

    def test_dtype_policy_carried(self):
        trainer = make_trainer(dtype_policy=DtypePolicy(compute_dtype="float32"))
        assert trainer.dtype_policy.compute_dtype == "float32"
        assert make_trainer().dtype_policy == DtypePolicy()


class TestStockCallbacks:
    def test_early_stopping_stops(self):
        class FlatLoop(ToyLoop):
            def batch_loss(self, batch):
                # constant loss: no improvement after the first epoch
                return F.mse_loss(
                    self.model(Tensor(batch[0])) * 0.0, np.zeros((batch[0].shape[0], 1))
                )

        trainer = make_trainer(
            FlatLoop(), callbacks=[EarlyStopping("loss", patience=2)]
        )
        trainer.fit(50)
        assert trainer.state.epoch == 3  # 1 best epoch + 2 patience epochs
        assert trainer.state.stop_training
        assert "early stopping" in trainer.state.stop_reason

    def test_early_stopping_ignores_missing_metric(self):
        trainer = make_trainer(callbacks=[EarlyStopping("no_such_metric", patience=1)])
        trainer.fit(3)
        assert trainer.state.epoch == 3
        assert not trainer.state.stop_training

    def test_early_stopping_validation(self):
        with pytest.raises(ValueError):
            EarlyStopping(mode="sideways")
        with pytest.raises(ValueError):
            EarlyStopping(min_delta=-0.1)

    def test_grad_clip(self):
        clip = GradClip(max_norm=1e-6)
        trainer = make_trainer(callbacks=[clip])
        trainer.fit(1)
        assert clip.last_norm is not None and clip.last_norm > 1e-6
        grads = [p.grad for p in trainer.optimizer.parameters if p.grad is not None]
        norm = float(np.sqrt(sum(float((g * g).sum()) for g in grads)))
        assert norm <= 1e-6 * 1.0001

    def test_grad_accumulation_matches_full_batch(self):
        # one full-batch step == accumulating the same data in micro-batches
        full = ToyLoop(batch_size=8, seed=123)
        micro = ToyLoop(batch_size=2, seed=123)  # same shuffle stream
        t_full = make_trainer(full, optimizer_cls=SGD, lr=0.1)
        t_micro = make_trainer(
            micro, optimizer_cls=SGD, lr=0.1, callbacks=[GradAccumulation(4)]
        )
        t_full.fit(1)
        t_micro.fit(1)
        assert t_micro.state.batch == 4
        assert t_micro.state.step == 1 == t_full.state.step
        np.testing.assert_allclose(
            micro.model.weight.data, full.model.weight.data, rtol=0, atol=1e-12
        )

    def test_grad_accumulation_partial_window_matches_full_batch(self):
        # a leftover window smaller than `steps` still averages over the
        # samples it actually saw, so it too equals one full-batch step
        full = ToyLoop(n=6, batch_size=6, seed=9)
        micro = ToyLoop(n=6, batch_size=2, seed=9)  # 3 micro-batches < window 4
        t_full = make_trainer(full, optimizer_cls=SGD, lr=0.1)
        t_micro = make_trainer(
            micro, optimizer_cls=SGD, lr=0.1, callbacks=[GradAccumulation(4)]
        )
        t_full.fit(1)
        t_micro.fit(1)
        assert t_micro.state.step == 1
        np.testing.assert_allclose(
            micro.model.weight.data, full.model.weight.data, rtol=0, atol=1e-12
        )

    def test_batch_level_stop_aborts_epoch(self):
        class StopAtFirstBatch(Callback):
            def on_batch_end(self, trainer, logs):
                trainer.state.stop_training = True
                trainer.state.stop_reason = "diverged"

        trainer = make_trainer(callbacks=[StopAtFirstBatch()])
        trainer.fit(5)
        # the partial epoch is not recorded and the run ends immediately
        assert trainer.state.batch == 1
        assert trainer.state.epoch == 0
        assert trainer.history.curve("loss") == []
        assert trainer.state.stop_reason == "diverged"

    def test_zero_batch_epoch_records_declared_metrics(self):
        class EmptyLoop(ToyLoop):
            def make_batches(self, epoch):
                return iter(())

        history = make_trainer(EmptyLoop()).fit(2)
        assert history.curve("loss") == [0.0, 0.0]
        assert len(history.curve("learning_rate")) == 2

    def test_history_kwarg_conflicts_with_loss_history_callback(self):
        loop = ToyLoop()
        optimizer = Adam(list(loop.parameters()), lr=0.1)
        with pytest.raises(ValueError):
            Trainer(loop, optimizer, callbacks=[LossHistory()], history=History())

    def test_progress_logger_format(self, capsys):
        trainer = make_trainer(callbacks=[ProgressLogger("toy")])
        trainer.fit(2)
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("[toy] epoch 1/2 loss=")
        assert lines[1].startswith("[toy] epoch 2/2 loss=")


class TestCheckpointResume:
    def test_resume_is_bit_identical(self, tmp_path):
        path = tmp_path / "toy_ck"
        full = ToyLoop()
        t_full = make_trainer(full)
        t_full.fit(6)

        part = ToyLoop()
        t_part = make_trainer(part, callbacks=[Checkpointer(path, every=1)])
        t_part.fit(3)

        resumed = ToyLoop()
        t_resumed = make_trainer(resumed)
        history = t_resumed.resume(path, epochs=6)

        assert history.curve("loss") == t_full.history.curve("loss")
        np.testing.assert_array_equal(resumed.model.weight.data, full.model.weight.data)
        np.testing.assert_array_equal(resumed.model.bias.data, full.model.bias.data)
        assert t_resumed.state.epoch == 6
        assert t_resumed.state.step == t_full.state.step

    def test_resume_restores_optimizer_scheduler_and_rng(self, tmp_path):
        path = tmp_path / "toy_ck"
        loop = ToyLoop()
        optimizer = Adam(list(loop.parameters()), lr=0.1)
        scheduler = StepLR(optimizer, step_size=1, gamma=0.5)
        trainer = Trainer(
            loop, optimizer, scheduler=scheduler, callbacks=[Checkpointer(path)]
        )
        trainer.fit(2)
        rng_after = get_rng_state(loop.rng)

        fresh_loop = ToyLoop()
        fresh_optimizer = Adam(list(fresh_loop.parameters()), lr=0.1)
        fresh_scheduler = StepLR(fresh_optimizer, step_size=1, gamma=0.5)
        fresh = Trainer(fresh_loop, fresh_optimizer, scheduler=fresh_scheduler)
        fresh.load_checkpoint(path)

        assert fresh_optimizer.lr == optimizer.lr
        assert fresh_optimizer._step == optimizer._step
        for m_a, m_b in zip(fresh_optimizer._m, optimizer._m):
            np.testing.assert_array_equal(m_a, m_b)
        assert fresh_scheduler.last_epoch == 2
        assert get_rng_state(fresh_loop.rng) == rng_after
        assert fresh.history.curve("loss") == trainer.history.curve("loss")

    def test_checkpoint_rejects_estimator_load(self, tmp_path):
        path = tmp_path / "toy_ck"
        trainer = make_trainer(callbacks=[Checkpointer(path)])
        trainer.fit(1)
        with pytest.raises(BundleFormatError, match="Trainer.resume"):
            load_estimator(path)

    def test_load_checkpoint_rejects_non_checkpoint(self, tmp_path):
        from repro.api.bundle import save_bundle

        path = save_bundle(tmp_path / "not_ck", {"x": np.zeros(3)}, {"estimator": "x"})
        with pytest.raises(BundleFormatError):
            make_trainer().load_checkpoint(path)


class TestStateHelpers:
    def test_progress_round_trip(self):
        state = TrainState(epoch=3, step=7, batch=11)
        restored = TrainState()
        restored.restore_progress(state.progress())
        assert (restored.epoch, restored.step, restored.batch) == (3, 7, 11)

    def test_rng_state_round_trip(self):
        a = new_rng(5)
        a.integers(0, 100, size=13)
        snapshot = get_rng_state(a)
        expected = a.normal(size=4)
        b = new_rng(999)
        set_rng_state(b, snapshot)
        np.testing.assert_array_equal(b.normal(size=4), expected)

    def test_optimizer_state_shape_checks(self):
        loop = ToyLoop()
        optimizer = Adam(list(loop.parameters()), lr=0.1)
        state = optimizer.state_dict()
        state["m"] = state["m"][:-1]
        with pytest.raises(ValueError):
            optimizer.load_state_dict(state)
