"""Shared infrastructure for the self-supervised baselines.

Every neural baseline follows the same recipe: a TS encoder is pre-trained
with the baseline's own self-supervised objective (``batch_loss``), and a
classifier is then fine-tuned on the labelled training split via the same
:class:`~repro.core.finetuner.FineTuner` used by AimTS, so the comparison
isolates the representation-learning objective.

All baselines implement the :class:`repro.api.Estimator` contract:
``pretrain`` accepts either a raw ``(N, M, T)`` pool or a list of datasets
(multi-source), ``fine_tune`` returns a ``FineTuneResult`` and arms
``predict`` / ``predict_proba``, and ``save`` / ``load`` round-trip the whole
model through versioned full-bundle checkpoints.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.api.estimator import FineTunedPredictorMixin
from repro.core.config import FineTuneConfig
from repro.core.finetuner import FineTuner, FineTuneResult
from repro.data.dataset import TimeSeriesDataset
from repro.data.loaders import build_pretraining_pool, epoch_index_batches, z_normalize
from repro.encoders import ProjectionHead, TSEncoder
from repro.engine import DtypePolicy, History, ProgressLogger, Trainer, TrainLoop
from repro.nn import Adam, StepArena
from repro.nn.inference import DEFAULT_SERVING_BATCH_SIZE
from repro.nn.tensor import Tensor, default_dtype
from repro.utils.seeding import new_rng
from repro.utils.validation import check_in_options, check_positive


@dataclass
class BaselineConfig:
    """Hyper-parameters shared by the neural baselines."""

    repr_dim: int = 32
    proj_dim: int = 16
    hidden_channels: int = 16
    depth: int = 2
    kernel_size: int = 3
    series_length: int = 96
    batch_size: int = 16
    learning_rate: float = 1e-3
    epochs: int = 2
    seed: int = 3407
    #: downstream aggregation of per-variable representations ("concat"/"mean"),
    #: mirroring AimTSConfig so comparisons stay architecture-fair.
    channel_aggregation: str = "concat"
    #: compute-core precision ("float64" reference / "float32" fast path) and
    #: serving micro-batch size, mirroring AimTSConfig.
    compute_dtype: str = "float64"
    encode_batch_size: int = DEFAULT_SERVING_BATCH_SIZE
    #: sharded data-parallel pre-training (>= 2 spawns a gradient worker
    #: pool; 1 is the bit-exact sequential path) and the batched-augmentation
    #: toggle, mirroring AimTSConfig.
    n_workers: int = 1
    augment_batched: bool = True
    #: where the produce stage runs, mirroring AimTSConfig: 0 inline on the
    #: parent, n_producers >= 1 in producer processes through a ring of
    #: prefetch_depth >= 2 slots; per-batch streams are keyed by
    #: SeedSequence([seed, epoch, step]) either way.
    n_producers: int = 0
    prefetch_depth: int = 2
    #: pooled autograd workspaces across training steps (StepArena),
    #: mirroring AimTSConfig: values are bit-identical either way; False
    #: restores per-step allocation.
    step_arena: bool = True

    def __post_init__(self) -> None:
        from repro.core.config import _check_pipeline_knobs

        for name in (
            "repr_dim",
            "proj_dim",
            "hidden_channels",
            "depth",
            "kernel_size",
            "series_length",
            "batch_size",
            "epochs",
        ):
            check_positive(name, getattr(self, name))
        check_positive("learning_rate", self.learning_rate)
        check_positive("encode_batch_size", self.encode_batch_size)
        check_positive("n_workers", self.n_workers)
        _check_pipeline_knobs(self.n_producers, self.prefetch_depth, self.n_workers)
        check_in_options("compute_dtype", self.compute_dtype, ("float32", "float64"))
        if self.channel_aggregation not in ("concat", "mean"):
            raise ValueError(
                f"channel_aggregation must be 'concat' or 'mean', got {self.channel_aggregation!r}"
            )


class SelfSupervisedBaseline(FineTunedPredictorMixin):
    """Base class for contrastive / reconstruction pre-training baselines.

    Subclasses split their objective in two stages.  :meth:`pipeline_produce`
    draws the views of one mini-batch of raw series ``(B, M, T)`` (crops,
    masks, augmentations) from the step-keyed streams of
    :meth:`_reseed_for_step` and reads no parameters; :meth:`batch_loss`
    returns the scalar loss Tensor of what it produced and draws nothing at
    random.
    """

    #: short name used in result tables
    name = "baseline"
    #: registry key (see :data:`repro.api.registry.ESTIMATORS`)
    api_name = "baseline"
    supports_pretraining = True

    def __init__(self, config: BaselineConfig | None = None):
        self.config = config or BaselineConfig()
        self._rng = new_rng(self.config.seed)
        self.dtype_policy = DtypePolicy(compute_dtype=self.config.compute_dtype)
        with default_dtype(self.dtype_policy.np_compute_dtype):
            self.encoder = self._build_encoder()
            self.projection = ProjectionHead(
                self.config.repr_dim, self.config.proj_dim, rng=int(self._rng.integers(0, 2**31))
            )
        #: buffer arena of the :meth:`encode` path, advanced once per micro-batch
        self._workspace = StepArena()
        self._pretrained = False
        self._finetuner: FineTuner | None = None
        self._label_map: np.ndarray | None = None
        #: the engine driver of the most recent / active pretrain() call
        self.trainer: Trainer | None = None
        #: persistent gradient worker pool (config.n_workers >= 2), spawned
        #: lazily on the first pretrain() — see :meth:`shutdown_workers`
        self._worker_pool = None
        #: persistent batch-producer pool (config.n_producers >= 1), spawned
        #: lazily on the first pretrain() — see :meth:`shutdown_workers`
        self._producer_pool = None
        #: optional :class:`repro.engine.parallel.RestartPolicy` armed on the
        #: pools (and the trainer's degradation ladder); set it before
        #: pretrain().  Kept off the config so injectable test clocks never
        #: travel to spawn children with the pickled config.
        self.restart_policy = None

    def _build_encoder(self) -> TSEncoder:
        return TSEncoder(
            hidden_channels=self.config.hidden_channels,
            repr_dim=self.config.repr_dim,
            depth=self.config.depth,
            kernel_size=self.config.kernel_size,
            channel_independent=True,
            rng=int(self._rng.integers(0, 2**31)),
        )

    @property
    def is_pretrained(self) -> bool:
        """Whether :meth:`pretrain` (or :meth:`load`) has been called."""
        return self._pretrained

    # ------------------------------------------------------------- objectives
    def pipeline_produce(self, batch: np.ndarray):  # pragma: no cover - interface
        """The produce stage of one step (every random draw; no parameters read)."""
        raise NotImplementedError

    def batch_loss(self, produced) -> Tensor:  # pragma: no cover - interface
        """The loss of one produced batch (no random draws)."""
        raise NotImplementedError

    def _named_auxiliary_modules(self) -> dict:
        """Extra trainable modules beyond encoder + projection (overridable).

        Keys become checkpoint prefixes, so they must be stable across
        versions of a subclass.
        """
        return {}

    def _auxiliary_modules(self) -> list:
        return list(self._named_auxiliary_modules().values())

    def _manifest_init_kwargs(self) -> dict:
        """Constructor keywords (beyond the config) recorded in bundles."""
        return {}

    def parameters(self):
        yield from self.encoder.parameters()
        yield from self.projection.parameters()
        for module in self._auxiliary_modules():
            yield from module.parameters()

    # ------------------------------------------------------------ pre-training
    def _augmentations(self) -> list:
        """Every augmentation op this baseline holds (attribute scan)."""
        from repro.augmentations import Augmentation

        return [value for value in vars(self).values() if isinstance(value, Augmentation)]

    def _apply_augment_mode(self) -> None:
        """Propagate ``config.augment_batched`` to the held augmentation ops."""
        batched = getattr(self.config, "augment_batched", True)
        for augmentation in self._augmentations():
            augmentation.batched = batched

    def _install_rng_children(self, root: np.random.SeedSequence) -> None:
        children = root.spawn(1 + len(self._augmentations()))
        self._rng = np.random.default_rng(children[0])
        for augmentation, child in zip(self._augmentations(), children[1:]):
            augmentation._rng = np.random.default_rng(child)

    def _reseed_for_step(self, epoch: int, step: int) -> None:
        """Install the step-keyed RNG streams of the produce stage.

        Derived from ``SeedSequence([seed, epoch, step])`` — a pure function
        of the schedule position, so any producer (or the parent) draws
        identical views for the same step.
        """
        from repro.engine.parallel import derive_step_seed

        self._install_rng_children(derive_step_seed(self.config.seed, epoch, step))

    def pretrain(
        self,
        corpus_or_X: list[TimeSeriesDataset] | np.ndarray,
        *,
        epochs: int | None = None,
        max_samples: int | None = None,
        n_variables: int = 1,
        verbose: bool = False,
        callbacks=(),
    ) -> list[float]:
        """Self-supervised pre-training via the unified training engine.

        Accepts either an unlabeled pool ``(N, M, T)`` (case-by-case
        paradigm) or a list of datasets, which are merged into a common-shape
        multi-source pool first (Fig. 8d paradigm).  ``epochs=None`` trains
        ``config.epochs`` epochs.  Returns the per-epoch loss list; the
        structured history is ``self.trainer.history``.  ``callbacks``
        accepts extra :class:`repro.engine.Callback` instances.
        """
        if not isinstance(corpus_or_X, np.ndarray):
            pool = build_pretraining_pool(
                corpus_or_X,
                length=self.config.series_length,
                n_variables=n_variables,
                max_samples=max_samples,
                seed=self._rng,
            )
            return self.pretrain(pool, epochs=epochs, verbose=verbose, callbacks=callbacks)

        X = z_normalize(np.asarray(corpus_or_X, dtype=self.dtype_policy.np_compute_dtype))
        if max_samples is not None and X.shape[0] > max_samples:
            # seeded subsample rather than head-truncation: raw pools are often
            # class-sorted, matching build_pretraining_pool's semantics
            X = X[np.sort(self._rng.choice(X.shape[0], size=max_samples, replace=False))]
        epochs = epochs if epochs is not None else self.config.epochs
        optimizer = Adam(list(self.parameters()), lr=self.config.learning_rate)
        loop = _BaselinePretrainLoop(self, X)
        # a pool that broke (or was closed) in an earlier fit is replaced, not
        # reused — e.g. after the trainer degraded a pipelined fit to inline
        if self._worker_pool is not None and not self._worker_pool.usable:
            self._worker_pool.close()
            self._worker_pool = None
        if self._producer_pool is not None and not self._producer_pool.usable:
            self._producer_pool.close()
            self._producer_pool = None
        if self.config.n_workers > 1 and self._worker_pool is None:
            from repro.engine.parallel import GradientWorkerPool

            # persistent pool: spawned once, reused by every subsequent fit
            self._worker_pool = GradientWorkerPool(
                loop.worker_factory(),
                list(self.parameters()),
                n_workers=self.config.n_workers,
                compute_dtype=self.dtype_policy.compute_dtype,
                restart_policy=self.restart_policy,
                step_arena=self.config.step_arena,
            )
        if self.config.n_producers >= 1 and self._producer_pool is None:
            from repro.engine.parallel import ProducerPool

            # persistent producers: replicas are pure functions of the config
            self._producer_pool = ProducerPool(
                loop.producer_factory(),
                n_producers=self.config.n_producers,
                prefetch_depth=self.config.prefetch_depth,
                compute_dtype=self.dtype_policy.compute_dtype,
                restart_policy=self.restart_policy,
            )
        history = History()
        engine_callbacks = list(callbacks)
        if verbose:
            engine_callbacks.insert(0, ProgressLogger(self.name))
        self.trainer = Trainer(
            loop,
            optimizer,
            callbacks=engine_callbacks,
            history=history,
            dtype_policy=self.dtype_policy,
            n_workers=self.config.n_workers,
            worker_pool=self._worker_pool,
            n_producers=self.config.n_producers,
            prefetch_depth=self.config.prefetch_depth,
            producer_pool=self._producer_pool,
            restart_policy=self.restart_policy,
            step_arena=self.config.step_arena,
        )
        self.trainer.fit(epochs)
        self._pretrained = True
        return history.curve("loss")

    def shutdown_workers(self) -> None:
        """Stop the persistent worker and producer pools (idempotent no-op
        when sequential / already stopped)."""
        if self._worker_pool is not None:
            self._worker_pool.close()
            self._worker_pool = None
        if self._producer_pool is not None:
            self._producer_pool.close()
            self._producer_pool = None

    # ------------------------------------------------------------- evaluation
    def fine_tune(
        self,
        dataset: TimeSeriesDataset,
        finetune_config: FineTuneConfig | None = None,
        *,
        label_ratio: float | None = None,
    ) -> FineTuneResult:
        """Fine-tune a classifier on the downstream dataset (encoder included)."""
        from repro.data.fewshot import few_shot_view

        encoder_copy = copy.deepcopy(self.encoder)
        # the self-supervised objectives pre-train with "mean" aggregation (the
        # pool has a fixed number of variables); downstream classification uses
        # the configured aggregation so every method sees the same head setup
        encoder_copy.channel_aggregation = self.config.channel_aggregation
        finetuner = FineTuner(encoder_copy, dataset.n_classes, finetune_config)
        working = few_shot_view(dataset, label_ratio, seed=self.config.seed)
        result = finetuner.fit_and_evaluate(working)
        self._finetuner = finetuner
        self._label_map = np.arange(dataset.n_classes, dtype=np.int64)
        return result

    # ------------------------------------------------------------ persistence
    def _model_modules(self) -> dict:
        return {
            "encoder": self.encoder,
            "projection": self.projection,
            **self._named_auxiliary_modules(),
        }

    def save(self, path) -> str:
        """Save a full-bundle checkpoint (see :mod:`repro.api.bundle`)."""
        from repro.api.bundle import save_bundle

        arrays: dict[str, np.ndarray] = {}
        for prefix, module in self._model_modules().items():
            for key, value in module.state_dict().items():
                arrays[f"model.{prefix}.{key}"] = value
        manifest = {
            "estimator": self.api_name,
            "config": dataclasses.asdict(self.config),
            "init_kwargs": self._manifest_init_kwargs(),
            "pretrained": self._pretrained,
        }
        if self.is_fitted:
            self._pack_finetuner(arrays, manifest)
        return save_bundle(path, arrays, manifest)

    def load(self, path) -> "SelfSupervisedBaseline":
        """Load a checkpoint saved by :meth:`save` into this instance."""
        from repro.api.bundle import load_bundle

        return self._load_from_state(*load_bundle(path))

    def _load_from_state(self, state: dict, manifest: dict) -> "SelfSupervisedBaseline":
        """Restore from already-read bundle contents (single-read load path)."""
        from repro.api.bundle import sub_state

        for prefix, module in self._model_modules().items():
            module.load_state_dict(sub_state(state, f"model.{prefix}"))
        self._pretrained = bool(manifest.get("pretrained", True))
        finetune = manifest.get("finetune")
        if finetune is None:
            # a pretrain-only bundle resets any classifier fitted before load —
            # it was trained against weights this instance no longer has
            self._finetuner = None
            self._label_map = None
        else:
            finetuner = FineTuner(
                copy.deepcopy(self.encoder),
                finetune["n_classes"],
                FineTuneConfig(**finetune["config"]),
            )
            self._restore_finetuner(finetuner, state, finetune)
        return self

    # ------------------------------------------------------------------ utils
    def encode(self, X: np.ndarray, *, batch_size: int | None = None) -> np.ndarray:
        """Representations from the (pre-trained) encoder, without gradients.

        Micro-batches of ``batch_size`` (default ``config.encode_batch_size``)
        run the encoder ``forward`` under ``no_grad()`` in eval mode and the
        configured compute dtype (:func:`repro.nn.inference.batched_infer`).
        """
        from repro.nn.inference import batched_infer

        return batched_infer(
            self.encoder,
            z_normalize(np.asarray(X, dtype=self.dtype_policy.np_compute_dtype)),
            batch_size=batch_size or self.config.encode_batch_size,
            workspace=self._workspace,
        )


def _baseline_worker_replica(baseline_cls, config: BaselineConfig, init_kwargs: dict):
    """Build one gradient-worker replica of a baseline objective.

    Module-level so spawn workers can unpickle it.  The replica only computes
    the loss of its shard of the batch the parent produced, so it draws
    nothing at random; its weights are overwritten by the parent's
    shared-memory broadcast each step.
    """
    return _BaselinePretrainLoop(baseline_cls(config, **init_kwargs))


class _BaselineProducer:
    """Picklable produce-stage replica of a baseline objective.

    Holds a full baseline instance (cheap at baseline model sizes) but only
    ever runs its parameter-free :meth:`~SelfSupervisedBaseline.pipeline_produce`
    stage, with RNG streams rekeyed per step so every replica — and the
    parent — draws identical views for the same ``(epoch, step)``.
    """

    def __init__(self, baseline: SelfSupervisedBaseline):
        self.baseline = baseline

    def produce(self, epoch: int, step: int, series: np.ndarray):
        self.baseline._reseed_for_step(epoch, step)
        return self.baseline.pipeline_produce(series)


def _baseline_producer_replica(
    baseline_cls, config: BaselineConfig, init_kwargs: dict, producer_index: int
):
    """Build one batch-producer replica of a baseline objective.

    ``producer_index`` is deliberately unused: replicas are interchangeable
    (determinism is keyed by schedule position, not by which producer ran
    the step), which is what lets the pool grow and shrink between epochs.
    """
    baseline = baseline_cls(config, **init_kwargs)
    baseline._apply_augment_mode()
    return _BaselineProducer(baseline)


class _BaselinePretrainLoop(TrainLoop):
    """Engine adapter for the self-supervised baseline objectives.

    Every step runs :meth:`pipeline_batches` → produce → :meth:`batch_loss`;
    worker replicas (``X=None``) only serve :meth:`batch_loss`.
    """

    #: contrastive objectives need at least a pair of samples per shard
    shard_min_samples = 2

    def __init__(self, baseline: SelfSupervisedBaseline, X: np.ndarray | None = None):
        self.baseline = baseline
        #: the z-normalised pre-training pool ``(N, M, T)``
        self.X = X

    def named_modules(self) -> dict:
        return dict(self.baseline._model_modules())

    def _replica_factory(self, replica):
        import functools

        return functools.partial(
            replica,
            type(self.baseline),
            self.baseline.config,
            self.baseline._manifest_init_kwargs(),
        )

    def worker_factory(self):
        return self._replica_factory(_baseline_worker_replica)

    def batch_loss(self, batch) -> Tensor:
        return self.baseline.batch_loss(batch)

    # ---------------------------------------------------------------- pipeline
    def producer_factory(self):
        return self._replica_factory(_baseline_producer_replica)

    def pipeline_batches(self, epoch):
        config = self.baseline.config
        for indices in epoch_index_batches(self.X, config.batch_size, epoch=epoch, seed=config.seed):
            if indices.size < 2:
                continue  # contrastive objectives need at least two samples
            yield self.X[indices]

    def pipeline_slot_nbytes(self) -> int:
        # produced payloads are (typically) two views of the batch
        return 2 * self.baseline.config.batch_size * self.X[0].nbytes
