"""The high-level :class:`AimTS` model.

This is the public entry point most users need:

>>> from repro.core import AimTS, AimTSConfig
>>> from repro.data import load_pretraining_corpus, load_dataset
>>> model = AimTS(AimTSConfig(epochs=1))
>>> model.pretrain(load_pretraining_corpus("monash", n_datasets=4))   # doctest: +SKIP
>>> result = model.fine_tune(load_dataset("ECG200"))                  # doctest: +SKIP
>>> result.accuracy                                                   # doctest: +SKIP

``AimTS`` implements the :class:`repro.api.Estimator` contract, so it is
interchangeable with every baseline: construct it from the registry
(``make_estimator("aimts", repr_dim=32)``), run it through
:func:`repro.evaluation.run_protocol`, and persist it whole with
:meth:`save` / :meth:`load` full-bundle checkpoints.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import AimTSConfig
from repro.core.finetuner import PretrainedEstimator
from repro.core.pretrainer import AimTSPretrainer, PretrainHistory
from repro.data.dataset import TimeSeriesDataset


class AimTS(PretrainedEstimator):
    """Augmented Series and Image Contrastive Learning for TSC.

    The model wraps a :class:`AimTSPretrainer` (pre-training stage).
    ``fine_tune``, ``make_finetuner``, ``save`` and ``load`` are the ones
    every self-supervised baseline uses (:class:`~repro.core.finetuner.
    PretrainedEstimator`): each downstream dataset gets a fresh
    :class:`~repro.core.finetuner.FineTuner` on a copy of the pre-trained TS
    encoder, so fine-tuning one dataset never contaminates another — the
    multi-source generalization paradigm (Fig. 1d) of the paper.  The most
    recent fine-tuner backs :meth:`predict` / :meth:`predict_proba`.

    A bundle stores the six pre-training modules under their
    :meth:`AimTSPretrainer.named_modules` names and records no constructor
    keywords.  ``restart_policy`` and ``trainer`` are the pre-trainer's.
    """

    name = "AimTS"
    api_name = "aimts"
    supports_pretraining = True

    def __init__(self, config: AimTSConfig | None = None):
        self.config = config or AimTSConfig()
        self.pretrainer = AimTSPretrainer(self.config)

    @property
    def restart_policy(self):
        """The pre-trainer's :class:`~repro.engine.parallel.RestartPolicy`
        (set it before :meth:`pretrain`)."""
        return self.pretrainer.restart_policy

    @restart_policy.setter
    def restart_policy(self, policy) -> None:
        self.pretrainer.restart_policy = policy

    @property
    def trainer(self):
        """The pre-trainer's :class:`~repro.engine.Trainer` of the most recent
        / active :meth:`pretrain`."""
        return self.pretrainer.trainer

    # ------------------------------------------------------------ pre-training
    def pretrain(
        self,
        corpus: list[TimeSeriesDataset] | np.ndarray,
        *,
        epochs: int | None = None,
        max_samples: int | None = None,
        verbose: bool = False,
        callbacks=(),
        resume_from=None,
    ) -> PretrainHistory:
        """Run multi-source self-supervised pre-training (Eq. 1).

        ``corpus`` is either a list of datasets (merged into one pool) or an
        already-built ``(N, M, T)`` pool; ``epochs`` overrides the configured
        epoch count for this call.  ``callbacks`` takes extra
        :class:`repro.engine.Callback` instances (early stopping on a
        contrastive loss, mid-run :class:`~repro.engine.Checkpointer`, ...)
        and ``resume_from`` continues a killed pre-train bit-identically from
        a checkpoint bundle.
        """
        history = self.pretrainer.fit(
            corpus,
            epochs=epochs,
            max_samples=max_samples,
            verbose=verbose,
            callbacks=callbacks,
            resume_from=resume_from,
        )
        self._pretrained = True
        return history

    def encode(self, X: np.ndarray, *, batch_size: int | None = None) -> np.ndarray:
        """Representations of ``(n, M, T)`` samples from the (pre-trained) TS encoder.

        Streams micro-batches of ``batch_size`` (default
        ``config.encode_batch_size``) through the no-grad inference
        path in the configured ``compute_dtype``.
        """
        return self.pretrainer.encode(X, batch_size=batch_size)

    def shutdown_workers(self) -> None:
        """Stop the pre-trainer's gradient worker and batch producer pools."""
        self.pretrainer.shutdown_workers()

    # ----------------------------------------------------------- bundle hooks
    def _bundle_modules(self) -> dict:
        return self.pretrainer.named_modules()

    def _pretrained_encoder(self):
        return self.pretrainer.ts_encoder
