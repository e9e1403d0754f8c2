"""Migration guarantees of the unified training engine.

Two families of tests:

* **Seed-curve reproduction** — the fine-tuning curve below was recorded by
  running the *pre-engine* (seed) epoch loop at this exact config; the
  AimTS and TS2Vec pre-training curves were recorded once on the step-keyed
  streams (``SeedSequence([seed, epoch, step])``) that every producer count
  shares.  Every loop must reproduce its curve bit-for-bit
  (``==`` on floats, no tolerance).
* **Bit-identical resume** — a pre-train killed after epoch *k* and resumed
  from a :class:`repro.engine.Checkpointer` bundle must produce the same
  remaining per-epoch losses and the same final weights as an uninterrupted
  run (optimizer moments, scheduler step and per-epoch RNG streams restored).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.base import BaselineConfig
from repro.baselines.ts2vec import TS2Vec
from repro.core.config import AimTSConfig, FineTuneConfig
from repro.core.finetuner import FineTuner
from repro.core.pretrainer import AimTSPretrainer, PretrainHistory
from repro.data.archives import make_dataset
from repro.encoders import TSEncoder
from repro.engine import Checkpointer, EarlyStopping, History

# --------------------------------------------------------------------------- #
# golden curves: fine-tuning recorded from the seed (pre-engine)
# implementation, AimTS and TS2Vec pre-training from the step-keyed produce
# stage (AimTS with the conv weight gradients on BLAS GEMM); every value
# re-recorded once when conv1d moved to per-tap GEMMs (a few ulp)
# --------------------------------------------------------------------------- #

SEED_PRETRAIN_TOTAL = [4.373614252731273, 3.8944088372540064]
SEED_PRETRAIN_PROTO = [2.286825386587604, 2.0064374119860915]
SEED_PRETRAIN_SI = [2.086788866143669, 1.8879714252679152]
SEED_PRETRAIN_LR = [0.007, 0.0035]
SEED_FINETUNE_LOSS = [2.240925270025744, 1.7985286662816258, 1.45649183857801]
SEED_TS2VEC_LOSS = [2.3519685096222993, 2.3238979997791467]


def pretrain_config(**overrides) -> AimTSConfig:
    base = dict(
        repr_dim=12,
        proj_dim=6,
        hidden_channels=6,
        depth=1,
        panel_size=16,
        series_length=32,
        batch_size=6,
        epochs=2,
        seed=0,
    )
    base.update(overrides)
    return AimTSConfig(**base)


def make_pool() -> np.ndarray:
    return np.random.default_rng(0).normal(size=(18, 1, 32))


class TestSeedCurveReproduction:
    """Every migrated loop reproduces its seed loss curve bit-for-bit."""

    def test_aimts_pretrain_curves(self):
        history = AimTSPretrainer(pretrain_config()).fit(make_pool())
        assert history.total_loss == SEED_PRETRAIN_TOTAL
        assert history.prototype_loss == SEED_PRETRAIN_PROTO
        assert history.series_image_loss == SEED_PRETRAIN_SI
        assert history.learning_rate == SEED_PRETRAIN_LR

    def test_finetuner_curve(self):
        dataset = make_dataset(
            "unit_ecg", "ecg", n_classes=2, n_train=16, n_test=24,
            length=48, n_variables=1, seed=0,
        )
        encoder = TSEncoder(
            hidden_channels=8, repr_dim=16, depth=1, channel_independent=True, rng=0
        )
        finetuner = FineTuner(
            encoder,
            dataset.n_classes,
            FineTuneConfig(epochs=3, batch_size=8, classifier_hidden_dim=16, seed=0),
        )
        curve = finetuner.fit(dataset.train)
        assert list(curve) == SEED_FINETUNE_LOSS

    def test_ts2vec_pretrain_curve(self):
        baseline = TS2Vec(
            BaselineConfig(
                repr_dim=12, proj_dim=6, hidden_channels=6, depth=1,
                series_length=32, batch_size=6, epochs=2, seed=0,
            )
        )
        curve = baseline.pretrain(make_pool(), epochs=2)
        assert list(curve) == SEED_TS2VEC_LOSS


class TestHistoryShims:
    """The loops' return values are views over the engine history."""

    def test_pretrain_history_is_engine_view(self):
        history = AimTSPretrainer(pretrain_config(epochs=1)).fit(make_pool())
        assert isinstance(history, PretrainHistory)
        engine = history.engine_history
        assert isinstance(engine, History)
        assert history.total_loss == engine.curve("loss")
        assert history.last()["total_loss"] == engine.last()["loss"]

    def test_finetune_curve_is_list_and_structured(self):
        dataset = make_dataset(
            "unit_ecg", "ecg", n_classes=2, n_train=12, n_test=8,
            length=32, n_variables=1, seed=0,
        )
        encoder = TSEncoder(
            hidden_channels=6, repr_dim=8, depth=1, channel_independent=True, rng=0
        )
        finetuner = FineTuner(
            encoder, dataset.n_classes, FineTuneConfig(epochs=2, batch_size=8, seed=0)
        )
        curve = finetuner.fit(dataset.train)
        assert isinstance(curve, list)
        assert len(curve) == 2
        assert curve == finetuner.trainer.history.curve("loss")
        assert finetuner.trainer.history.curve("learning_rate") == [
            finetuner.config.learning_rate
        ] * 2

    def test_pretrain_pool_too_small_records_zero_losses(self):
        # every batch is filtered by the contrastive two-sample minimum; the
        # seed loop recorded 0.0 per epoch and the engine keeps that shape
        history = AimTSPretrainer(pretrain_config()).fit(np.zeros((1, 1, 32)))
        assert history.total_loss == [0.0, 0.0]
        assert history.prototype_loss == [0.0, 0.0]
        assert history.series_image_loss == [0.0, 0.0]
        assert len(history.learning_rate) == 2

    def test_baseline_curve_is_list_and_structured(self):
        baseline = TS2Vec(
            BaselineConfig(
                repr_dim=8, proj_dim=4, hidden_channels=4, depth=1,
                series_length=32, batch_size=6, epochs=1, seed=0,
            )
        )
        curve = baseline.pretrain(make_pool(), epochs=1)
        assert isinstance(curve, list) and len(curve) == 1
        assert curve == baseline.trainer.history.curve("loss")


class TestBitIdenticalResume:
    def test_pretrain_resumes_bit_identically(self, tmp_path):
        pool = make_pool()
        config = pretrain_config()

        uninterrupted = AimTSPretrainer(config)
        uninterrupted.fit(pool, epochs=4)

        # "kill" a second run after epoch 2, checkpointing every epoch
        checkpoint = tmp_path / "pretrain_ck"
        killed = AimTSPretrainer(config)
        killed.fit(pool, epochs=2, callbacks=[Checkpointer(checkpoint)])

        resumed = AimTSPretrainer(config)
        history = resumed.fit(pool, epochs=4, resume_from=checkpoint)

        # the remaining epochs' losses are the uninterrupted run's, bit-for-bit
        assert history.total_loss == uninterrupted.history.total_loss
        assert history.prototype_loss == uninterrupted.history.prototype_loss
        assert history.series_image_loss == uninterrupted.history.series_image_loss
        assert history.learning_rate == uninterrupted.history.learning_rate

        # final weights of every pre-training module are bit-identical
        full_modules = uninterrupted.trainer.loop.named_modules()
        for name, module in resumed.trainer.loop.named_modules().items():
            reference = full_modules[name].state_dict()
            for key, value in module.state_dict().items():
                np.testing.assert_array_equal(value, reference[key], err_msg=f"{name}.{key}")

        # and the optimizer advanced the same number of steps
        assert resumed.trainer.state.step == uninterrupted.trainer.state.step

    def test_pipelined_pretrain_resumes_bit_identically(self, tmp_path):
        pool = make_pool()
        config = pretrain_config(n_producers=1, prefetch_depth=2)

        uninterrupted = AimTSPretrainer(config)
        uninterrupted.fit(pool, epochs=4)
        uninterrupted.shutdown_workers()

        checkpoint = tmp_path / "pipelined_ck"
        killed = AimTSPretrainer(config)
        killed.fit(pool, epochs=2, callbacks=[Checkpointer(checkpoint)])
        killed.shutdown_workers()

        # resume producing on the parent (n_producers=0): every draw is
        # step-keyed, so the producer count never changes the curve and the
        # run continues loss-for-loss identical to the uninterrupted one
        resumed = AimTSPretrainer(pretrain_config())
        history = resumed.fit(pool, epochs=4, resume_from=checkpoint)
        resumed.shutdown_workers()

        assert history.total_loss == uninterrupted.history.total_loss
        assert history.prototype_loss == uninterrupted.history.prototype_loss
        assert history.series_image_loss == uninterrupted.history.series_image_loss

        full_modules = uninterrupted.trainer.loop.named_modules()
        for name, module in resumed.trainer.loop.named_modules().items():
            reference = full_modules[name].state_dict()
            for key, value in module.state_dict().items():
                np.testing.assert_array_equal(value, reference[key], err_msg=f"{name}.{key}")

    def test_resume_skips_completed_epochs(self, tmp_path):
        pool = make_pool()
        checkpoint = tmp_path / "ck"
        first = AimTSPretrainer(pretrain_config())
        first.fit(pool, epochs=2, callbacks=[Checkpointer(checkpoint)])

        resumed = AimTSPretrainer(pretrain_config())
        history = resumed.fit(pool, epochs=2, resume_from=checkpoint)
        # nothing left to run: the restored history comes back unchanged
        assert history.total_loss == first.history.total_loss
        assert resumed.trainer.state.epoch == 2


class TestEngineCapabilitiesOnRealLoops:
    def test_pretrain_early_stopping_on_contrastive_loss(self):
        pretrainer = AimTSPretrainer(pretrain_config())
        history = pretrainer.fit(
            make_pool(),
            epochs=10,
            callbacks=[EarlyStopping("prototype", patience=1, min_delta=10.0)],
        )
        # an impossible min_delta stops after best + patience epochs
        assert len(history.total_loss) == 2
        assert pretrainer.trainer.state.stop_training

    def test_finetune_early_stopping_reports_actual_epochs(self):
        dataset = make_dataset(
            "unit_ecg", "ecg", n_classes=2, n_train=12, n_test=8,
            length=32, n_variables=1, seed=0,
        )
        encoder = TSEncoder(
            hidden_channels=6, repr_dim=8, depth=1, channel_independent=True, rng=0
        )
        finetuner = FineTuner(
            encoder, dataset.n_classes, FineTuneConfig(epochs=30, batch_size=8, seed=0)
        )
        curve = finetuner.fit(
            dataset.train,
            callbacks=[EarlyStopping("loss", patience=1, min_delta=100.0)],
        )
        assert len(curve) == 2 < finetuner.config.epochs

    def test_fit_and_evaluate_reports_epochs_actually_run(self):
        dataset = make_dataset(
            "unit_ecg", "ecg", n_classes=2, n_train=12, n_test=8,
            length=32, n_variables=1, seed=0,
        )
        encoder = TSEncoder(
            hidden_channels=6, repr_dim=8, depth=1, channel_independent=True, rng=0
        )
        finetuner = FineTuner(
            encoder, dataset.n_classes, FineTuneConfig(epochs=2, batch_size=8, seed=0)
        )
        result = finetuner.fit_and_evaluate(dataset)
        assert result.n_epochs == 2 == len(result.history)

    def test_closed_form_estimators_report_zero_epochs(self):
        from repro.baselines.rocket import Rocket
        from repro.baselines.supervised import LinearClassifier

        dataset = make_dataset(
            "unit_ecg", "ecg", n_classes=2, n_train=12, n_test=8,
            length=32, n_variables=1, seed=0,
        )
        for estimator in (Rocket(n_kernels=20), LinearClassifier()):
            result = estimator.fine_tune(dataset)
            assert result.n_epochs == 0
