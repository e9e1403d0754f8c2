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

import copy
import dataclasses
import os

import numpy as np

from repro.api.estimator import FineTunedPredictorMixin
from repro.core.config import AimTSConfig, FineTuneConfig
from repro.core.finetuner import FineTuner, FineTuneResult
from repro.core.pretrainer import AimTSPretrainer, PretrainHistory
from repro.data.dataset import TimeSeriesDataset
from repro.data.fewshot import few_shot_view


class AimTS(FineTunedPredictorMixin):
    """Augmented Series and Image Contrastive Learning for TSC.

    The model wraps a :class:`AimTSPretrainer` (pre-training stage) and
    produces fresh :class:`FineTuner` instances per downstream dataset, so
    fine-tuning one dataset never contaminates another — exactly the
    multi-source generalization paradigm (Fig. 1d) of the paper.  The most
    recent fine-tuner is kept on the facade, backing :meth:`predict` /
    :meth:`predict_proba`.
    """

    name = "AimTS"
    api_name = "aimts"
    supports_pretraining = True

    def __init__(self, config: AimTSConfig | None = None):
        self.config = config or AimTSConfig()
        self.pretrainer = AimTSPretrainer(self.config)
        self._pretrained = False
        self._finetuner: FineTuner | None = None
        self._label_map: np.ndarray | None = None

    # ------------------------------------------------------------ pre-training
    @property
    def is_pretrained(self) -> bool:
        """Whether :meth:`pretrain` (or :meth:`load`) has been called."""
        return self._pretrained

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
        """Stop the persistent gradient worker pool (``config.n_workers``)."""
        self.pretrainer.shutdown_workers()

    # ------------------------------------------------------------- fine-tuning
    def make_finetuner(
        self, n_classes: int, config: FineTuneConfig | None = None, *, copy_encoder: bool = True
    ) -> FineTuner:
        """Create a fine-tuner seeded with (a copy of) the pre-trained encoder.

        ``copy_encoder=True`` (default) deep-copies the encoder so that each
        downstream task starts from the same pre-trained weights.  The copy is
        switched to the configured downstream ``channel_aggregation`` (the
        pre-training encoder itself always uses "mean" so prototype shapes do
        not depend on the corpus dimensionality).
        """
        encoder = copy.deepcopy(self.pretrainer.ts_encoder) if copy_encoder else self.pretrainer.ts_encoder
        encoder.channel_aggregation = self.config.channel_aggregation
        return FineTuner(encoder, n_classes, config)

    def fine_tune(
        self,
        dataset: TimeSeriesDataset,
        config: FineTuneConfig | None = None,
        *,
        label_ratio: float | None = None,
        verbose: bool = False,
    ) -> FineTuneResult:
        """Fine-tune on one downstream dataset and evaluate on its test split.

        Parameters
        ----------
        dataset:
            The downstream dataset.
        config:
            Fine-tuning hyper-parameters.
        label_ratio:
            If given, only this stratified fraction of the training labels is
            used (the Table V few-shot protocol).
        """
        finetuner = self.make_finetuner(dataset.n_classes, config)
        working = few_shot_view(dataset, label_ratio, seed=self.config.seed)
        result = finetuner.fit_and_evaluate(working, verbose=verbose)
        self._finetuner = finetuner
        self._label_map = np.arange(dataset.n_classes, dtype=np.int64)
        return result

    # ------------------------------------------------------------ persistence
    def _pretrain_modules(self) -> dict[str, object]:
        return {
            "ts_encoder": self.pretrainer.ts_encoder,
            "image_encoder": self.pretrainer.image_encoder,
            "view_projection": self.pretrainer.view_projection,
            "prototype_projection": self.pretrainer.prototype_projection,
            "series_projection": self.pretrainer.series_projection,
            "image_projection": self.pretrainer.image_projection,
        }

    def save(self, path: str | os.PathLike) -> str:
        """Save a full-bundle checkpoint of the model to ``path``.

        The bundle holds the pre-trained encoders and projection heads, the
        fine-tuned classifier (when :meth:`fine_tune` has run), the label map
        and the originating config, all behind a schema-versioned manifest —
        see :mod:`repro.api.bundle`.
        """
        from repro.api.bundle import save_bundle

        arrays: dict[str, np.ndarray] = {}
        for prefix, module in self._pretrain_modules().items():
            for key, value in module.state_dict().items():
                arrays[f"{prefix}.{key}"] = value
        manifest = {
            "estimator": self.api_name,
            "config": dataclasses.asdict(self.config),
            "pretrained": self._pretrained,
        }
        if self.is_fitted:
            self._pack_finetuner(arrays, manifest)
        return save_bundle(path, arrays, manifest)

    def load(self, path: str | os.PathLike) -> "AimTS":
        """Load a bundle saved by :meth:`save`.

        Raises :class:`repro.api.BundleFormatError` for anything that is not
        a readable bundle, including a pre-bundle state-dict archive.
        """
        from repro.api.bundle import load_bundle

        return self._load_from_state(*load_bundle(path))

    def _load_from_state(self, state: dict, manifest: dict) -> "AimTS":
        """Restore from already-read bundle contents (single-read load path)."""
        from repro.api.bundle import sub_state

        for prefix, module in self._pretrain_modules().items():
            module.load_state_dict(sub_state(state, prefix))

        # any classifier fitted before load was trained against weights this
        # instance no longer has; a bundle without a finetune section resets it
        self._finetuner = None
        self._label_map = None
        self._pretrained = bool(manifest.get("pretrained", True))
        finetune = manifest.get("finetune")
        if finetune is not None:
            finetuner = self.make_finetuner(
                finetune["n_classes"], FineTuneConfig(**finetune["config"])
            )
            self._restore_finetuner(finetuner, state, finetune)
        return self
