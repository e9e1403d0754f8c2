"""The :class:`Estimator` protocol — one contract for every model in the repo.

AimTS, the self-supervised baselines (TS2Vec, TS-TCC, T-Loss, TNC, SimCLR,
MOMENT-like, UniTS-like) and the supervised baselines (SupervisedCNN, Linear,
Rocket, MiniRocket) all expose the same sklearn-style surface, so the
evaluation protocols, examples and sweeps never special-case a model family:

``pretrain(corpus_or_X)``
    Self-supervised pre-training on a list of datasets (multi-source) or a
    raw ``(N, M, T)`` pool.  A no-op for models without a pre-training stage
    (supervised / closed-form estimators return ``None``).
``fine_tune(dataset, config=None, *, label_ratio=None)``
    Supervised adaptation to one downstream dataset; always returns a
    :class:`~repro.core.finetuner.FineTuneResult`.
``encode(X)``
    Fixed-size representations of ``(n, M, T)`` samples.
``predict(X)`` / ``predict_proba(X)``
    Batch inference with the fine-tuned classifier.
``save(path)`` / ``load(path)``
    Full-bundle checkpointing (see :mod:`repro.api.bundle`).

This module intentionally imports nothing from :mod:`repro.core` or
:mod:`repro.baselines`; conformance is structural (duck-typed), checked at
runtime via :func:`isinstance` thanks to :func:`typing.runtime_checkable`.
"""

from __future__ import annotations

import os
from typing import Protocol, runtime_checkable

import numpy as np

from repro.nn.inference import DEFAULT_SERVING_BATCH_SIZE  # noqa: F401  (re-export)


@runtime_checkable
class Estimator(Protocol):
    """Structural protocol implemented by every registered model."""

    #: display name used in result tables (e.g. ``"TS2Vec"``)
    name: str
    #: registry key the estimator is constructible from (e.g. ``"ts2vec"``)
    api_name: str
    #: whether :meth:`pretrain` performs real work (False for supervised models)
    supports_pretraining: bool

    def pretrain(self, corpus_or_X, **kwargs): ...

    def fine_tune(self, dataset, config=None, *, label_ratio: float | None = None): ...

    def encode(self, X: np.ndarray) -> np.ndarray: ...

    def predict(self, X: np.ndarray) -> np.ndarray: ...

    def predict_proba(self, X: np.ndarray) -> np.ndarray: ...

    def save(self, path: str | os.PathLike) -> str: ...

    def load(self, path: str | os.PathLike): ...


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise numerically stable softmax over the last axis."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


class RidgePredictorMixin:
    """``predict`` / ``predict_proba`` from closed-form decision scores.

    Estimators whose classifier is a ridge head (Rocket, LinearClassifier)
    mix this in and implement ``_decision_scores(X) -> (n, n_classes)``.
    ``self._label_map`` records the class labels the head was fitted against
    (contiguous ``0..n_classes-1`` today); it is persisted in bundles but
    deliberately NOT used to remap predictions, so ``predict`` and the column
    order of ``predict_proba`` always agree.
    """

    _label_map: np.ndarray | None = None

    def _decision_scores(self, X: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict class labels for ``(n, M, T)`` samples."""
        return self._decision_scores(X).argmax(axis=1)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Softmax-normalised decision scores ``(n, n_classes)``."""
        return softmax(self._decision_scores(X))


#: ``DEFAULT_SERVING_BATCH_SIZE`` (re-exported above) is the serving
#: micro-batch size used when an estimator's config does not set one; the
#: single authoritative constant lives in ``repro.nn.inference`` so the
#: config dataclasses share it without import cycles.


class FineTunedPredictorMixin:
    """``predict`` / ``predict_proba`` on top of a fitted ``FineTuner``.

    Estimators whose downstream stage is a :class:`~repro.core.finetuner.
    FineTuner` (AimTS, every neural baseline) mix this in and set
    ``self._finetuner`` and ``self._label_map`` inside :meth:`fine_tune`;
    the mixin then exposes batch-sized inference on the facade so callers
    never reach into ``FineTuner`` internals.  Serving streams micro-batches
    through the fine-tuner's no-grad forward; the batch size defaults to
    the estimator config's ``encode_batch_size`` when it defines one.

    ``self._label_map`` records the class labels the classifier was trained
    against (contiguous ``0..n_classes-1`` today); it is persisted in bundles
    but deliberately NOT used to remap predictions, so ``predict`` and the
    column order of ``predict_proba`` always agree.
    """

    _finetuner = None
    _label_map: np.ndarray | None = None

    @property
    def is_fitted(self) -> bool:
        """Whether a fine-tuned classifier is available for prediction."""
        return self._finetuner is not None and self._finetuner.classifier is not None

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise RuntimeError(
                f"{type(self).__name__} has no fine-tuned classifier; "
                "call fine_tune() (or load a fine-tuned bundle) before predict()"
            )

    def _serving_batch_size(self) -> int:
        """The configured serving micro-batch size (``config.encode_batch_size``)."""
        configured = getattr(getattr(self, "config", None), "encode_batch_size", None)
        return int(configured) if configured else DEFAULT_SERVING_BATCH_SIZE

    def predict(self, X: np.ndarray, *, batch_size: int | None = None) -> np.ndarray:
        """Predict class labels for ``(n, M, T)`` samples."""
        self._require_fitted()
        return self._finetuner.predict(
            X, batch_size=batch_size or self._serving_batch_size()
        )

    def predict_proba(self, X: np.ndarray, *, batch_size: int | None = None) -> np.ndarray:
        """Class probabilities ``(n, n_classes)`` for ``(n, M, T)`` samples."""
        self._require_fitted()
        return self._finetuner.predict_proba(
            X, batch_size=batch_size or self._serving_batch_size()
        )

    def workspace_stats(self) -> dict[str, int]:
        """Merged buffer-arena counters of the estimator's inference workspaces.

        Sums ``hits`` / ``misses`` / ``nbytes`` / ``peak_bytes`` / ``buffers``
        over every :class:`~repro.nn.arena.StepArena` the estimator owns
        (the fine-tuner's prediction arena, the pre-trainer's / baseline's
        ``encode`` arena).  ``ModelServer.stats()`` aggregates this across
        replicas so operators can verify steady-state serving allocates
        nothing.
        """
        merged = {"hits": 0, "misses": 0, "nbytes": 0, "peak_bytes": 0, "buffers": 0}
        seen: set[int] = set()
        owners = (self._finetuner, getattr(self, "pretrainer", None), self)
        for owner in owners:
            workspace = getattr(owner, "_workspace", None)
            if workspace is None or id(workspace) in seen:
                continue
            seen.add(id(workspace))
            for key, value in workspace.stats().items():
                merged[key] = merged.get(key, 0) + value
        return merged

    # --------------------------------------------------- bundle (de)serialization
    def _pack_finetuner(self, arrays: dict, manifest: dict) -> None:
        """Add the fitted fine-tuner's weights + metadata to a bundle in place.

        Writes the ``finetune.encoder.* / finetune.classifier.* /
        finetune.label_map`` arrays and the ``manifest["finetune"]`` section
        every estimator family shares.
        """
        import dataclasses

        for key, value in self._finetuner.encoder.state_dict().items():
            arrays[f"finetune.encoder.{key}"] = value
        for key, value in self._finetuner.classifier.state_dict().items():
            arrays[f"finetune.classifier.{key}"] = value
        arrays["finetune.label_map"] = np.asarray(self._label_map, dtype=np.int64)
        manifest["finetune"] = {
            "n_classes": int(self._finetuner.n_classes),
            "n_variables": int(self._finetuner.n_variables),
            "channel_aggregation": self._finetuner.encoder.channel_aggregation,
            "config": dataclasses.asdict(self._finetuner.config),
        }

    def _restore_finetuner(self, finetuner, state: dict, finetune: dict) -> None:
        """Arm ``self`` with a fine-tuner rebuilt from a bundle's state.

        ``finetuner`` is a freshly constructed (un-fitted) FineTuner whose
        encoder matches the estimator's architecture; its weights are
        overwritten from the ``finetune.*`` arrays saved by
        :meth:`_pack_finetuner`.
        """
        from repro.api.bundle import sub_state

        finetuner.encoder.channel_aggregation = finetune["channel_aggregation"]
        finetuner._ensure_classifier(finetune["n_variables"])
        finetuner.encoder.load_state_dict(sub_state(state, "finetune.encoder"))
        finetuner.classifier.load_state_dict(sub_state(state, "finetune.classifier"))
        self._finetuner = finetuner
        self._label_map = np.asarray(state["finetune.label_map"], dtype=np.int64)
