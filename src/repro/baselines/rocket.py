"""ROCKET and MiniRocket baselines (Dempster et al., DMKD 2020).

ROCKET convolves the series with a large bank of random kernels and feeds two
pooled features per kernel — the maximum response and the proportion of
positive values (PPV) — into a linear (ridge) classifier.  MiniRocket uses a
fixed small kernel alphabet with random dilations and biases and PPV-only
features.  Both are implemented directly in NumPy (no autograd needed) and
implement the :class:`repro.api.Estimator` contract (``pretrain`` is a no-op;
``fine_tune`` fits the kernels + ridge head on the labelled training split).
"""

from __future__ import annotations

import time

import numpy as np

from repro.api.estimator import RidgePredictorMixin
from repro.core.finetuner import FineTuneResult
from repro.data.dataset import TimeSeriesDataset
from repro.data.fewshot import few_shot_view
from repro.data.loaders import z_normalize
from repro.utils.seeding import new_rng
from repro.utils.validation import check_positive


def _ridge_fit(features: np.ndarray, y: np.ndarray, ridge: float) -> tuple[np.ndarray, int]:
    n_classes = int(np.max(y)) + 1
    targets = np.eye(n_classes)[np.asarray(y, dtype=np.int64)]
    design = np.concatenate([features, np.ones((features.shape[0], 1))], axis=1)
    gram = design.T @ design + ridge * np.eye(design.shape[1])
    weights = np.linalg.solve(gram, design.T @ targets)
    return weights, n_classes


def _ridge_scores(features: np.ndarray, weights: np.ndarray) -> np.ndarray:
    design = np.concatenate([features, np.ones((features.shape[0], 1))], axis=1)
    return design @ weights


class Rocket(RidgePredictorMixin):
    """Random convolutional kernel transform + ridge classifier."""

    name = "Rocket"
    api_name = "rocket"
    supports_pretraining = False

    def __init__(self, n_kernels: int = 200, *, ridge: float = 1.0, seed: int = 3407):
        check_positive("n_kernels", n_kernels)
        check_positive("ridge", ridge)
        self.n_kernels = n_kernels
        self.ridge = ridge
        self.seed = seed
        self._kernels: list[tuple[np.ndarray, float, int, int]] = []
        self._weights: np.ndarray | None = None
        self._feature_stats: tuple[np.ndarray, np.ndarray] | None = None
        self._label_map: np.ndarray | None = None

    def _generate_kernels(self, length: int) -> None:
        rng = new_rng(self.seed)
        self._kernels = []
        for _ in range(self.n_kernels):
            kernel_length = int(rng.choice([7, 9, 11]))
            weights = rng.normal(0.0, 1.0, kernel_length)
            weights = weights - weights.mean()
            bias = float(rng.uniform(-1.0, 1.0))
            max_exponent = max(0, int(np.log2((length - 1) / (kernel_length - 1))) if length > kernel_length else 0)
            dilation = int(2 ** rng.integers(0, max_exponent + 1))
            padding = ((kernel_length - 1) * dilation) // 2 if rng.random() < 0.5 else 0
            self._kernels.append((weights, bias, dilation, padding))

    def _transform(self, X: np.ndarray) -> np.ndarray:
        """Compute (max, PPV) features for every kernel, averaged over variables."""
        X = z_normalize(np.asarray(X, dtype=np.float64))
        n, m, t = X.shape
        features = np.zeros((n, 2 * len(self._kernels)))
        for k, (weights, bias, dilation, padding) in enumerate(self._kernels):
            kernel_length = weights.shape[0]
            span = (kernel_length - 1) * dilation + 1
            padded = np.pad(X, ((0, 0), (0, 0), (padding, padding))) if padding else X
            if padded.shape[2] < span:
                padded = np.pad(padded, ((0, 0), (0, 0), (0, span - padded.shape[2])))
            windows = np.lib.stride_tricks.sliding_window_view(padded, span, axis=2)[:, :, :, ::dilation]
            responses = np.einsum("nmtk,k->nmt", windows, weights) + bias
            features[:, 2 * k] = responses.max(axis=(1, 2))
            features[:, 2 * k + 1] = (responses > 0).mean(axis=(1, 2))
        return features

    # --------------------------------------------------------------- contract
    def pretrain(self, corpus_or_X=None, **kwargs) -> None:
        """No-op: the random-kernel transform has no pre-training stage."""
        return None

    def encode(self, X: np.ndarray) -> np.ndarray:
        """Normalised random-kernel features (requires a fitted model)."""
        if self._feature_stats is None:
            raise RuntimeError("call fit() or fine_tune() before encode()")
        mean, std = self._feature_stats
        return (self._transform(X) - mean) / std

    def fit(self, X: np.ndarray, y: np.ndarray) -> "Rocket":
        """Generate kernels, transform the training data and fit the ridge head."""
        self._generate_kernels(X.shape[2])
        features = self._transform(X)
        mean, std = features.mean(axis=0), features.std(axis=0) + 1e-8
        self._feature_stats = (mean, std)
        self._weights, _ = _ridge_fit((features - mean) / std, y, self.ridge)
        self._label_map = None  # any previous fine_tune label map is stale now
        return self

    def _decision_scores(self, X: np.ndarray) -> np.ndarray:
        if self._weights is None or self._feature_stats is None:
            raise RuntimeError("call fit() before predict()")
        return _ridge_scores(self.encode(X), self._weights)

    def fine_tune(
        self,
        dataset: TimeSeriesDataset,
        config=None,
        *,
        label_ratio: float | None = None,
    ) -> FineTuneResult:
        """Fit on ``dataset.train`` and score ``dataset.test``; config is unused."""
        working = few_shot_view(dataset, label_ratio, seed=self.seed)
        working_train = working.train
        start = time.perf_counter()
        self.fit(working_train.X, working_train.y)
        elapsed = time.perf_counter() - start
        self._label_map = np.arange(max(dataset.n_classes, self._weights.shape[1]), dtype=np.int64)
        return FineTuneResult(
            dataset=dataset.name,
            accuracy=float((self.predict(dataset.test.X) == dataset.test.y).mean()),
            train_accuracy=float((self.predict(working_train.X) == working_train.y).mean()),
            # the ridge head is fitted in closed form: no epoch loop runs
            n_epochs=0,
            fit_seconds=elapsed,
            history=[],
        )

    # ------------------------------------------------------------ persistence
    def save(self, path) -> str:
        """Save a full-bundle checkpoint (see :mod:`repro.api.bundle`)."""
        from repro.api.bundle import save_bundle

        if self._weights is None or self._feature_stats is None:
            raise RuntimeError("call fit() or fine_tune() before save()")
        arrays: dict[str, np.ndarray] = {
            "ridge_weights": self._weights,
            "feature_mean": self._feature_stats[0],
            "feature_std": self._feature_stats[1],
            "kernel_biases": np.array([bias for _, bias, _, _ in self._kernels]),
            "kernel_dilations": np.array([d for _, _, d, _ in self._kernels], dtype=np.int64),
            "kernel_paddings": np.array([p for _, _, _, p in self._kernels], dtype=np.int64),
        }
        for index, (weights, _, _, _) in enumerate(self._kernels):
            arrays[f"kernel.{index}.weights"] = weights
        if self._label_map is not None:
            arrays["label_map"] = np.asarray(self._label_map, dtype=np.int64)
        manifest = {
            "estimator": self.api_name,
            "init_kwargs": {"n_kernels": self.n_kernels, "ridge": self.ridge, "seed": self.seed},
        }
        return save_bundle(path, arrays, manifest)

    def load(self, path) -> "Rocket":
        """Load a checkpoint saved by :meth:`save` into this instance."""
        from repro.api.bundle import load_bundle

        return self._load_from_state(*load_bundle(path))

    def _load_from_state(self, state: dict, manifest: dict) -> "Rocket":
        """Restore from already-read bundle contents (single-read load path)."""
        biases = state["kernel_biases"]
        dilations = state["kernel_dilations"]
        paddings = state["kernel_paddings"]
        self._kernels = [
            (
                np.asarray(state[f"kernel.{index}.weights"], dtype=np.float64),
                float(biases[index]),
                int(dilations[index]),
                int(paddings[index]),
            )
            for index in range(len(biases))
        ]
        self._weights = np.asarray(state["ridge_weights"], dtype=np.float64)
        self._feature_stats = (
            np.asarray(state["feature_mean"], dtype=np.float64),
            np.asarray(state["feature_std"], dtype=np.float64),
        )
        self._label_map = (
            np.asarray(state["label_map"], dtype=np.int64) if "label_map" in state else None
        )
        return self


class MiniRocket(Rocket):
    """MiniRocket: fixed two-valued kernels, random dilations, PPV-only features."""

    name = "Minirocket"
    api_name = "minirocket"

    def _generate_kernels(self, length: int) -> None:
        rng = new_rng(self.seed)
        self._kernels = []
        kernel_length = 9
        for _ in range(self.n_kernels):
            weights = np.full(kernel_length, -1.0)
            high_positions = rng.choice(kernel_length, size=3, replace=False)
            weights[high_positions] = 2.0
            bias = float(rng.normal(0.0, 1.0))
            max_exponent = max(0, int(np.log2((length - 1) / (kernel_length - 1))) if length > kernel_length else 0)
            dilation = int(2 ** rng.integers(0, max_exponent + 1))
            padding = ((kernel_length - 1) * dilation) // 2
            self._kernels.append((weights, bias, dilation, padding))

    def _transform(self, X: np.ndarray) -> np.ndarray:
        full = super()._transform(X)
        # keep only the PPV features (odd columns), as in MiniRocket
        return full[:, 1::2]
