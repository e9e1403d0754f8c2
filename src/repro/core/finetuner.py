"""Downstream fine-tuning and evaluation (paper Fig. 3b).

The fine-tuner takes a (pre-trained) TS encoder, attaches an MLP classifier,
and trains on the small labelled training split of one downstream dataset
with cross-entropy.  No augmentation or imaging is applied at this stage —
raw series go straight through the TS encoder, exactly as in the paper.

:class:`PretrainedEstimator` is the one ``fine_tune`` / ``save`` / ``load``
of every method that is pre-trained once and fine-tuned per dataset (AimTS
and the seven self-supervised baselines), so each of them is adapted by
this :class:`FineTuner` recipe and written to the same bundle layout.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import time
from dataclasses import dataclass, field

import numpy as np

from repro.api.bundle import load_bundle, save_bundle, sub_state
from repro.api.estimator import FineTunedPredictorMixin
from repro.core.config import FineTuneConfig
from repro.data.dataset import DatasetSplit, TimeSeriesDataset
from repro.data.fewshot import few_shot_view
from repro.data.loaders import BatchIterator, z_normalize
from repro.encoders import ClassifierHead, TSEncoder
from repro.engine import (
    DtypePolicy,
    History,
    ProgressLogger,
    Trainer,
    TrainLoop,
    dropout_rngs,
)
from repro.nn import Adam, StepArena
from repro.nn import functional as F
from repro.nn.tensor import Tensor, default_dtype
from repro.utils.seeding import new_rng


@dataclass
class FineTuneResult:
    """Outcome of fine-tuning on one downstream dataset.

    ``n_epochs`` is the number of epochs *actually run* (fewer than the
    configured budget when early stopping fires; ``0`` for closed-form
    estimators with no epoch loop).
    """

    dataset: str
    accuracy: float
    train_accuracy: float
    n_epochs: int
    fit_seconds: float
    history: list[float] = field(default_factory=list)


class FineTuner:
    """Fine-tune a TS encoder plus classifier on one labelled dataset.

    Parameters
    ----------
    encoder:
        The TS encoder to fine-tune (typically the pre-trained AimTS encoder;
        a randomly initialised encoder gives the from-scratch baseline).
    n_classes:
        Number of classes of the downstream task.
    config:
        Fine-tuning hyper-parameters.
    """

    def __init__(self, encoder: TSEncoder, n_classes: int, config: FineTuneConfig | None = None):
        self.encoder = encoder
        self.n_classes = n_classes
        self.config = config or FineTuneConfig()
        self._rng = new_rng(self.config.seed)
        # The classifier is built lazily at fit() time because its input size
        # depends on the downstream dataset when the encoder concatenates the
        # per-variable representations (channel_aggregation="concat").
        self.classifier: ClassifierHead | None = None
        #: number of variables the classifier input was sized for (set at fit time)
        self.n_variables: int | None = None
        #: the engine driver of the most recent / active fit() call
        self.trainer: Trainer | None = None
        #: buffer arena of the prediction path, advanced once per micro-batch
        self._workspace = StepArena()

    def _compute_dtype(self) -> np.dtype:
        """The precision this fine-tuner runs under — the encoder's parameter
        dtype, so a float32 pre-trained encoder fine-tunes (and serves) in
        float32 without any extra configuration."""
        for param in self.encoder.parameters():
            return param.data.dtype
        return np.dtype(np.float64)  # pragma: no cover - parameterless encoders

    def _ensure_classifier(self, n_variables: int) -> None:
        if self.classifier is not None:
            return
        self.n_variables = int(n_variables)
        if hasattr(self.encoder, "output_dim"):
            in_dim = self.encoder.output_dim(n_variables)
        else:  # pragma: no cover - non-standard encoders
            in_dim = self.encoder.repr_dim
        with default_dtype(self._compute_dtype()):
            self.classifier = ClassifierHead(
                in_dim,
                self.n_classes,
                hidden_dim=self.config.classifier_hidden_dim,
                dropout=self.config.dropout,
                rng=int(self._rng.integers(0, 2**31)),
            )

    def _parameters(self):
        if not self.config.freeze_encoder:
            yield from self.encoder.parameters()
        yield from self.classifier.parameters()

    def _forward(self, X: np.ndarray) -> Tensor:
        representations = self.encoder(X)
        if self.config.freeze_encoder:
            representations = representations.detach()
        return self.classifier(representations)

    def fit(
        self, train: DatasetSplit, *, verbose: bool = False, callbacks=()
    ) -> list[float]:
        """Fine-tune on a labelled training split via the unified training engine.

        Returns the per-epoch loss list; the structured history is
        ``self.trainer.history``.  ``callbacks`` accepts extra
        :class:`repro.engine.Callback` instances, e.g.
        :class:`~repro.engine.EarlyStopping`.
        """
        if train.y is None:
            raise ValueError("fine-tuning requires a labelled training split")
        self._ensure_classifier(train.n_variables)
        compute_dtype = self._compute_dtype()
        X = z_normalize(train.X).astype(compute_dtype, copy=False)
        y = train.y
        optimizer = Adam(list(self._parameters()), lr=self.config.learning_rate)
        loop = _FineTuneLoop(self, X, y)
        history = History()
        engine_callbacks = list(callbacks)
        if verbose:
            engine_callbacks.insert(0, ProgressLogger("finetune"))
        self.encoder.train()
        self.classifier.train()
        self.trainer = Trainer(
            loop,
            optimizer,
            callbacks=engine_callbacks,
            history=history,
            dtype_policy=DtypePolicy(compute_dtype=compute_dtype.name),
            step_arena=self.config.step_arena,
        )
        self.trainer.fit(self.config.epochs)
        return history.curve("loss")

    def predict_logits(self, X: np.ndarray, *, batch_size: int | None = None) -> np.ndarray:
        """Evaluation-mode class logits ``(n, n_classes)`` for ``(n, M, T)`` samples.

        Micro-batches run the encoder and classifier ``forward`` under
        ``no_grad()`` in eval mode (dropout skipped), pooling buffers in the
        fine-tuner's arena (:func:`repro.nn.inference.batched_infer`).
        ``batch_size`` defaults to ``repro.nn.inference.
        DEFAULT_SERVING_BATCH_SIZE`` (256).
        """
        from repro.nn.inference import DEFAULT_SERVING_BATCH_SIZE, batched_infer

        if self.classifier is None:
            raise RuntimeError("call fit() before predict()")
        return batched_infer(
            self.encoder,
            z_normalize(np.asarray(X, dtype=self._compute_dtype())),
            batch_size=batch_size or DEFAULT_SERVING_BATCH_SIZE,
            workspace=self._workspace,
            head=self.classifier,
        )

    def predict(self, X: np.ndarray, *, batch_size: int | None = None) -> np.ndarray:
        """Predict integer class labels for ``(n, M, T)`` samples."""
        return self.predict_logits(X, batch_size=batch_size).argmax(axis=-1)

    def predict_proba(self, X: np.ndarray, *, batch_size: int | None = None) -> np.ndarray:
        """Softmax class probabilities ``(n, n_classes)`` for ``(n, M, T)`` samples."""
        from repro.api.estimator import softmax

        return softmax(self.predict_logits(X, batch_size=batch_size))

    def score(self, split: DatasetSplit) -> float:
        """Classification accuracy on a labelled split."""
        if split.y is None:
            raise ValueError("scoring requires labels")
        predictions = self.predict(split.X)
        return float((predictions == split.y).mean())

    def fit_and_evaluate(self, dataset: TimeSeriesDataset, *, verbose: bool = False) -> FineTuneResult:
        """Convenience wrapper: fine-tune on ``dataset.train``, score on ``dataset.test``.

        ``FineTuneResult.n_epochs`` reports the epochs actually run (which can
        be fewer than ``config.epochs`` under early stopping).
        """
        start = time.perf_counter()
        curve = self.fit(dataset.train, verbose=verbose)
        elapsed = time.perf_counter() - start
        return FineTuneResult(
            dataset=dataset.name,
            accuracy=self.score(dataset.test),
            train_accuracy=self.score(dataset.train),
            n_epochs=len(curve),
            fit_seconds=elapsed,
            history=curve,
        )


class _FineTuneLoop(TrainLoop):
    """Engine adapter for supervised fine-tuning (cross-entropy)."""

    def __init__(self, finetuner: FineTuner, X: np.ndarray, y: np.ndarray):
        self.finetuner = finetuner
        # shares the fine-tuner's generator so the per-epoch shuffles consume
        # the exact stream positions the seed loop did
        self.iterator = BatchIterator(
            X, y, batch_size=finetuner.config.batch_size, shuffle=True, seed=finetuner._rng
        )

    def named_modules(self) -> dict:
        return {
            "encoder": self.finetuner.encoder,
            "classifier": self.finetuner.classifier,
        }

    def named_rngs(self) -> dict:
        rngs = {"finetuner": self.finetuner._rng}
        rngs.update(dropout_rngs(self.finetuner.classifier, "classifier.dropout"))
        return rngs

    def make_batches(self, epoch):
        yield from self.iterator

    def batch_loss(self, batch) -> Tensor:
        batch_X, batch_y = batch
        logits = self.finetuner._forward(batch_X)
        return F.cross_entropy(logits, batch_y)


class PretrainedEstimator(FineTunedPredictorMixin):
    """Pre-trained once, fine-tuned per dataset: AimTS and the seven
    self-supervised baselines.

    One ``fine_tune`` / ``save`` / ``load`` serves both families, so every
    method is adapted with the same :class:`FineTuner` recipe and writes the
    same bundle layout.  A family supplies data only:

    * :meth:`_bundle_modules` — the named pre-trained modules a bundle
      stores, under :attr:`_bundle_prefix` (``""`` for AimTS, ``"model."``
      for the baselines);
    * :meth:`_pretrained_encoder` — the TS encoder each fine-tuner copies;
    * :meth:`_manifest_init_kwargs` — the constructor keywords a bundle
      records (``None`` writes no ``init_kwargs``).

    A subclass holds a ``config`` with ``seed`` and ``channel_aggregation``,
    and sets ``_pretrained`` when its ``pretrain`` has run.
    """

    #: array-name prefix of the pre-trained modules in a bundle
    _bundle_prefix = ""
    _pretrained = False

    @property
    def is_pretrained(self) -> bool:
        """Whether :meth:`pretrain` (or :meth:`load`) has been called."""
        return self._pretrained

    def _bundle_modules(self) -> dict:  # pragma: no cover - interface
        """The pre-trained modules a bundle stores, by stable name."""
        raise NotImplementedError

    def _pretrained_encoder(self):  # pragma: no cover - interface
        """The TS encoder each new fine-tuner starts from (as a deep copy)."""
        raise NotImplementedError

    def _manifest_init_kwargs(self) -> dict | None:
        """Constructor keywords beyond the config that a bundle records."""
        return None

    # ------------------------------------------------------------- fine-tuning
    def make_finetuner(self, n_classes: int, config: FineTuneConfig | None = None) -> FineTuner:
        """A fine-tuner seeded with a copy of the pre-trained encoder.

        The copy keeps every downstream task on the same pre-trained weights.
        It is switched to ``config.channel_aggregation``; pre-training always
        aggregates variables with "mean", so its shapes do not depend on the
        corpus dimensionality.
        """
        encoder = copy.deepcopy(self._pretrained_encoder())
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

        ``label_ratio`` keeps only that stratified fraction of the training
        labels (the Table V few-shot protocol).  Returns the
        :class:`FineTuneResult`; the fitted fine-tuner then backs
        :meth:`predict` / :meth:`predict_proba`.
        """
        finetuner = self.make_finetuner(dataset.n_classes, config)
        working = few_shot_view(dataset, label_ratio, seed=self.config.seed)
        result = finetuner.fit_and_evaluate(working, verbose=verbose)
        self._finetuner = finetuner
        self._label_map = np.arange(dataset.n_classes, dtype=np.int64)
        return result

    # ------------------------------------------------------------ persistence
    def save(self, path: str | os.PathLike) -> str:
        """Save a full-bundle checkpoint to ``path``; returns the path written.

        The bundle holds the pre-trained modules, the fine-tuned classifier
        and label map (when :meth:`fine_tune` has run) and the originating
        config behind a schema-versioned manifest (see :mod:`repro.api.bundle`).
        """
        arrays = {
            f"{self._bundle_prefix}{name}.{key}": value
            for name, module in self._bundle_modules().items()
            for key, value in module.state_dict().items()
        }
        manifest = {
            "estimator": self.api_name,
            "config": dataclasses.asdict(self.config),
            "pretrained": self._pretrained,
        }
        init_kwargs = self._manifest_init_kwargs()
        if init_kwargs is not None:
            manifest["init_kwargs"] = init_kwargs
        if self.is_fitted:
            self._pack_finetuner(arrays, manifest)
        return save_bundle(path, arrays, manifest)

    def load(self, path: str | os.PathLike):
        """Load a bundle saved by :meth:`save` into this instance.

        Raises :class:`~repro.api.bundle.BundleFormatError` for anything
        that is not a readable bundle.
        """
        return self._load_from_state(*load_bundle(path))

    def _load_from_state(self, state: dict, manifest: dict):
        """Restore from already-read bundle contents (single-read load path)."""
        for name, module in self._bundle_modules().items():
            module.load_state_dict(sub_state(state, f"{self._bundle_prefix}{name}"))
        self._pretrained = bool(manifest.get("pretrained", True))
        # a classifier fitted before load was trained against weights this
        # instance no longer has; a bundle without a finetune section drops it
        self._finetuner = None
        self._label_map = None
        finetune = manifest.get("finetune")
        if finetune is not None:
            finetuner = self.make_finetuner(
                finetune["n_classes"], FineTuneConfig(**finetune["config"])
            )
            self._restore_finetuner(finetuner, state, finetune)
        return self
