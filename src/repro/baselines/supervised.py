"""Supervised case-by-case baselines (Table II).

The paper's Table II compares against supervised deep models (TimesNet,
PatchTST, Crossformer, OS-CNN, TapNet, DLinear, ...).  Two representative
supervised baselines are provided:

* :class:`SupervisedCNN` — the same dilated-convolution encoder as AimTS,
  trained end-to-end with cross-entropy (stands for the deep CNN family).
* :class:`LinearClassifier` — a DLinear-style linear model over the flattened,
  z-normalised series (stands for the simple linear family).

Both implement the :class:`repro.api.Estimator` contract; their ``pretrain``
is a documented no-op (``supports_pretraining`` is False), so the protocol
runner treats them uniformly with the self-supervised methods.
"""

from __future__ import annotations

import time

import numpy as np

from repro.api.estimator import FineTunedPredictorMixin, RidgePredictorMixin
from repro.core.config import FineTuneConfig
from repro.core.finetuner import FineTuner, FineTuneResult
from repro.data.dataset import TimeSeriesDataset
from repro.data.fewshot import few_shot_view
from repro.data.loaders import z_normalize
from repro.encoders import TSEncoder
from repro.utils.seeding import new_rng
from repro.utils.validation import check_positive


class SupervisedCNN(FineTunedPredictorMixin):
    """Dilated-CNN classifier trained from scratch on each dataset."""

    name = "SupervisedCNN"
    api_name = "supervised_cnn"
    supports_pretraining = False

    def __init__(
        self,
        *,
        hidden_channels: int = 16,
        repr_dim: int = 32,
        depth: int = 2,
        epochs: int = 20,
        learning_rate: float = 1e-3,
        batch_size: int = 8,
        seed: int = 3407,
    ):
        check_positive("epochs", epochs)
        self.hidden_channels = hidden_channels
        self.repr_dim = repr_dim
        self.depth = depth
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.batch_size = batch_size
        self.seed = seed
        self._finetuner: FineTuner | None = None
        self._label_map: np.ndarray | None = None

    def pretrain(self, corpus_or_X=None, **kwargs) -> None:
        """No-op: supervised models have no pre-training stage."""
        return None

    def _build_encoder(self, rng: np.random.Generator) -> TSEncoder:
        return TSEncoder(
            hidden_channels=self.hidden_channels,
            repr_dim=self.repr_dim,
            depth=self.depth,
            channel_independent=True,
            channel_aggregation="concat",
            rng=int(rng.integers(0, 2**31)),
        )

    def _default_config(self) -> FineTuneConfig:
        return FineTuneConfig(
            learning_rate=self.learning_rate,
            epochs=self.epochs,
            batch_size=self.batch_size,
            seed=self.seed,
        )

    def fine_tune(
        self,
        dataset: TimeSeriesDataset,
        config: FineTuneConfig | None = None,
        *,
        label_ratio: float | None = None,
    ) -> FineTuneResult:
        """Train end-to-end on ``dataset.train`` and evaluate on ``dataset.test``.

        ``config=None`` trains with the constructor's recipe.
        """
        rng = new_rng(self.seed)
        encoder = self._build_encoder(rng)
        config = config or self._default_config()
        finetuner = FineTuner(encoder, dataset.n_classes, config)
        working = few_shot_view(dataset, label_ratio, seed=self.seed)
        result = finetuner.fit_and_evaluate(working)
        self._finetuner = finetuner
        self._label_map = np.arange(dataset.n_classes, dtype=np.int64)
        return result

    def encode(self, X: np.ndarray, *, batch_size: int = 64) -> np.ndarray:
        """Representations from the trained encoder (requires :meth:`fine_tune`)."""
        from repro.nn.inference import batched_infer

        self._require_fitted()
        return batched_infer(
            self._finetuner.encoder,
            z_normalize(np.asarray(X, dtype=np.float64)),
            batch_size=batch_size,
            workspace=self._finetuner._workspace,
        )

    # ------------------------------------------------------------ persistence
    def save(self, path) -> str:
        """Save a full-bundle checkpoint (see :mod:`repro.api.bundle`)."""
        from repro.api.bundle import save_bundle

        self._require_fitted()
        arrays: dict[str, np.ndarray] = {}
        manifest = {
            "estimator": self.api_name,
            "init_kwargs": {
                "hidden_channels": self.hidden_channels,
                "repr_dim": self.repr_dim,
                "depth": self.depth,
                "epochs": self.epochs,
                "learning_rate": self.learning_rate,
                "batch_size": self.batch_size,
                "seed": self.seed,
            },
        }
        self._pack_finetuner(arrays, manifest)
        return save_bundle(path, arrays, manifest)

    def load(self, path) -> "SupervisedCNN":
        """Load a checkpoint saved by :meth:`save` into this instance."""
        from repro.api.bundle import load_bundle

        return self._load_from_state(*load_bundle(path))

    def _load_from_state(self, state: dict, manifest: dict) -> "SupervisedCNN":
        """Restore from already-read bundle contents (single-read load path)."""
        finetune = manifest["finetune"]
        finetuner = FineTuner(
            self._build_encoder(new_rng(self.seed)),
            finetune["n_classes"],
            FineTuneConfig(**finetune["config"]),
        )
        self._restore_finetuner(finetuner, state, finetune)
        return self


class LinearClassifier(RidgePredictorMixin):
    """Multinomial ridge classifier on the flattened series (DLinear-style).

    Trained in closed form against one-hot targets, so it is deterministic and
    extremely fast — a useful lower bound in the supervised comparison.
    """

    name = "Linear"
    api_name = "linear"
    supports_pretraining = False

    def __init__(self, *, ridge: float = 1.0, seed: int = 3407):
        check_positive("ridge", ridge)
        self.ridge = ridge
        self.seed = seed
        self._weights: np.ndarray | None = None
        self._n_classes: int | None = None
        self._label_map: np.ndarray | None = None

    @staticmethod
    def _features(X: np.ndarray) -> np.ndarray:
        X = z_normalize(np.asarray(X, dtype=np.float64))
        flat = X.reshape(X.shape[0], -1)
        return np.concatenate([flat, np.ones((flat.shape[0], 1))], axis=1)

    def pretrain(self, corpus_or_X=None, **kwargs) -> None:
        """No-op: the closed-form model has no pre-training stage."""
        return None

    def encode(self, X: np.ndarray) -> np.ndarray:
        """The flattened z-normalised series (the model's feature space)."""
        return self._features(X)[:, :-1]

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LinearClassifier":
        """Closed-form ridge regression against one-hot labels."""
        features = self._features(X)
        y = np.asarray(y, dtype=np.int64)
        self._n_classes = int(y.max()) + 1
        targets = np.eye(self._n_classes)[y]
        gram = features.T @ features + self.ridge * np.eye(features.shape[1])
        self._weights = np.linalg.solve(gram, features.T @ targets)
        self._label_map = None  # any previous fine_tune label map is stale now
        return self

    def _decision_scores(self, X: np.ndarray) -> np.ndarray:
        if self._weights is None:
            raise RuntimeError("call fit() before predict()")
        return self._features(X) @ self._weights

    def fine_tune(
        self,
        dataset: TimeSeriesDataset,
        config: FineTuneConfig | None = None,
        *,
        label_ratio: float | None = None,
    ) -> FineTuneResult:
        """Fit in closed form on ``dataset.train``; ``config`` is unused."""
        working = few_shot_view(dataset, label_ratio, seed=self.seed)
        start = time.perf_counter()
        self.fit(working.train.X, working.train.y)
        elapsed = time.perf_counter() - start
        self._label_map = np.arange(max(dataset.n_classes, self._n_classes), dtype=np.int64)
        return FineTuneResult(
            dataset=dataset.name,
            accuracy=float((self.predict(dataset.test.X) == dataset.test.y).mean()),
            train_accuracy=float((self.predict(working.train.X) == working.train.y).mean()),
            # the closed-form ridge fit runs no epoch loop
            n_epochs=0,
            fit_seconds=elapsed,
            history=[],
        )

    # ------------------------------------------------------------ persistence
    def save(self, path) -> str:
        """Save a full-bundle checkpoint (see :mod:`repro.api.bundle`)."""
        from repro.api.bundle import save_bundle

        if self._weights is None:
            raise RuntimeError("call fit() or fine_tune() before save()")
        arrays = {"weights": self._weights}
        if self._label_map is not None:
            arrays["label_map"] = np.asarray(self._label_map, dtype=np.int64)
        manifest = {
            "estimator": self.api_name,
            "init_kwargs": {"ridge": self.ridge, "seed": self.seed},
            "n_classes": self._n_classes,
        }
        return save_bundle(path, arrays, manifest)

    def load(self, path) -> "LinearClassifier":
        """Load a checkpoint saved by :meth:`save` into this instance."""
        from repro.api.bundle import load_bundle

        return self._load_from_state(*load_bundle(path))

    def _load_from_state(self, state: dict, manifest: dict) -> "LinearClassifier":
        """Restore from already-read bundle contents (single-read load path)."""
        self._weights = np.asarray(state["weights"], dtype=np.float64)
        self._n_classes = manifest.get("n_classes")
        self._label_map = (
            np.asarray(state["label_map"], dtype=np.int64) if "label_map" in state else None
        )
        return self
