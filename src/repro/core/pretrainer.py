"""The AimTS multi-source pre-training loop (paper Fig. 3a).

For every mini-batch drawn from the merged multi-source pool the pre-trainer:

1. produces the step's parameter-free inputs — two augmented view sets from
   the G-augmentation bank, a line-chart image per sample and the geodesic
   mixup coefficients λ ~ Beta(γ, γ) — all keyed by ``SeedSequence([seed,
   epoch, step])``, on the parent or in producer processes,
2. encodes all views with the TS encoder, projects them, and forms the two
   prototypes per sample,
3. computes the two-level prototype loss ``L_proto`` (Eq. 6) with adaptive
   temperatures derived from the raw augmented views,
4. encodes the images with the image encoder and computes the series-image
   loss ``L_SI`` (Eq. 12) with the geodesic mixup negatives,
5. optimises both encoders and projection heads with Adam + StepLR on the
   total loss ``L = L_proto + L_SI`` (Eq. 1).
"""

from __future__ import annotations

import numpy as np

from repro.augmentations import AugmentationBank
from repro.core.config import AimTSConfig
from repro.core.losses import prototype_loss, series_image_loss
from repro.core.mixup import sample_mixup_coefficients
from repro.core.prototypes import adaptive_temperatures, aggregate_prototype, pairwise_view_distances
from repro.data.dataset import TimeSeriesDataset
from repro.data.loaders import build_pretraining_pool, epoch_index_batches, is_sharded_corpus
from repro.encoders import ImageEncoder, ProjectionHead, TSEncoder
from repro.engine import (
    DtypePolicy,
    History,
    ProgressLogger,
    Trainer,
    TrainLoop,
    shard_arrays,
)
from repro.engine.parallel import PersistentPools
from repro.engine.profiler import profiled_phase
from repro.imaging import LineChartRenderer, RenderCache
from repro.nn import Adam, StepArena, StepLR, Tensor
from repro.nn.tensor import default_dtype
from repro.utils.seeding import new_rng


class PretrainHistory:
    """Per-epoch pre-training curves — a thin view over the engine history.

    Keeps the seed-era attribute shape (``total_loss`` / ``prototype_loss`` /
    ``series_image_loss`` / ``learning_rate`` lists plus :meth:`last`) while
    the data lives in one :class:`repro.engine.History` recorded by the
    trainer's :class:`~repro.engine.LossHistory` callback, available raw via
    :attr:`engine_history`.
    """

    #: attribute name → engine metric name
    _METRICS = {
        "total_loss": "loss",
        "prototype_loss": "prototype",
        "series_image_loss": "series_image",
        "learning_rate": "learning_rate",
    }

    def __init__(self, history: History | None = None):
        self._history = history if history is not None else History()

    @property
    def engine_history(self) -> History:
        """The underlying structured :class:`repro.engine.History`."""
        return self._history

    @property
    def total_loss(self) -> list[float]:
        return self._history.curve("loss")

    @property
    def prototype_loss(self) -> list[float]:
        return self._history.curve("prototype")

    @property
    def series_image_loss(self) -> list[float]:
        return self._history.curve("series_image")

    @property
    def learning_rate(self) -> list[float]:
        return self._history.curve("learning_rate")

    def last(self) -> dict[str, float]:
        """Summary of the final epoch (empty dict if no epoch has run)."""
        if not self.total_loss:
            return {}
        return {name: getattr(self, name)[-1] for name in self._METRICS}

    def __len__(self) -> int:
        return len(self.total_loss)

    def __repr__(self) -> str:
        return f"PretrainHistory(epochs={len(self)})"


def build_augmentation_bank(config: AimTSConfig, rng: np.random.Generator) -> AugmentationBank:
    """Instantiate the augmentation bank named in ``config.augmentation_names``.

    Names resolve through :data:`repro.api.registry.AUGMENTATIONS`, so banks
    are constructible from plain config the same way estimators are.  The
    ``config.augment_batched`` knob selects the vectorized batch kernels
    (default) or the per-sample reference loops — the two are bit-identical
    under the same RNG streams.
    """
    from repro.api.registry import AUGMENTATIONS

    augmentations = []
    for name in config.augmentation_names:
        if name not in AUGMENTATIONS:
            raise KeyError(
                f"unknown augmentation {name!r}; known: {AUGMENTATIONS.names()}"
            )
        augmentations.append(
            AUGMENTATIONS.create(name, seed=new_rng(int(rng.integers(0, 2**31))))
        )
    return AugmentationBank(augmentations).set_batched(
        getattr(config, "augment_batched", True)
    )


def _pretrain_producer_replica(
    config: AimTSConfig, cache: RenderCache | None, producer_index: int
):
    """Build one batch-producer replica of the pre-training produce stage.

    Module-level so spawn producers can unpickle it.  ``cache`` is the
    parent's render table when the parent produces, ``None`` in producer
    processes.  ``producer_index`` is deliberately unused for anything
    stochastic: every stream ``produce`` consumes is re-keyed per step, so
    replicas are interchangeable — the producer count, and a respawned
    producer replaying a step, never touch the curve.
    """
    return _PretrainProducer(config, cache)


class _PretrainProducer:
    """The produce stage of one pre-training step: augment, render, mixup λ.

    Holds its own augmentation bank and renderer.  Images come from ``cache``
    when given (the parent's render table) and are rendered every step
    otherwise.  Every draw derives from ``derive_step_seed(config.seed,
    epoch, step)``, making the output a pure function of the step key.
    """

    def __init__(self, config: AimTSConfig, cache: RenderCache | None):
        self.config = config
        self.bank = build_augmentation_bank(config, new_rng(config.seed))
        self.renderer = LineChartRenderer(panel_size=config.panel_size, dtype=config.compute_dtype)
        self.cache = cache

    def produce(self, epoch: int, step: int, payload):
        """``(indices, series)`` → ``(series, images, views_a, views_b, lam)``.

        The step key spawns one child per augmentation (the view streams)
        plus one for λ; disabled objectives leave their entries ``None``.
        """
        from repro.engine.parallel import derive_step_seed

        indices, series = payload
        cfg = self.config
        *view_keys, mixup_key = derive_step_seed(cfg.seed, epoch, step).spawn(
            cfg.n_augmentations + 1
        )
        views_a = views_b = None
        if cfg.use_prototype_loss:
            for augmentation, key in zip(self.bank, view_keys):
                augmentation._rng = np.random.default_rng(key)
            with profiled_phase("augment"):
                views_a, views_b = self.bank.two_views(series)
        images = lam = None
        if cfg.use_series_image_loss:
            with profiled_phase("render"):
                images = (
                    self.cache.get_batch(series, indices)
                    if self.cache is not None
                    else self.renderer.render_batch(series)
                )
            if cfg.mixup_mode != "none":
                lam = sample_mixup_coefficients(
                    len(series), gamma=cfg.gamma, seed=np.random.default_rng(mixup_key)
                )
        return series, images, views_a, views_b, lam


def _pretrain_worker_replica(config: AimTSConfig):
    """Build one gradient-worker replica of the pre-training objective.

    Runs inside a spawn worker (module-level so it pickles by reference).
    The replica only computes the loss on its shard of the batch the parent
    produced, so it draws nothing at random; its weights are irrelevant —
    every step begins by copying the parent's parameters from shared memory.
    """
    return _PretrainLoop(AimTSPretrainer(config))


class AimTSPretrainer(PersistentPools):
    """Runs the AimTS pre-training stage on a multi-source corpus.

    Parameters
    ----------
    config:
        Pre-training hyper-parameters; ``AimTSConfig()`` reproduces the
        paper's default setting at CPU scale.
    """

    def __init__(self, config: AimTSConfig | None = None):
        self.config = config or AimTSConfig()
        self._rng = new_rng(self.config.seed)
        cfg = self.config
        self.bank = build_augmentation_bank(cfg, self._rng)
        #: precision policy shared with the training engine (configured once,
        #: consumed by the renderer here and carried by the Trainer)
        self.dtype_policy = DtypePolicy(compute_dtype=cfg.compute_dtype)
        self.renderer = LineChartRenderer(panel_size=cfg.panel_size, dtype=cfg.compute_dtype)
        #: read-only table of the pool's leading renders; filled by :meth:`fit`
        #: when ``config.cache_images`` is on and the parent produces inline.
        self.render_cache: RenderCache | None = None
        #: buffer arena of the :meth:`encode` path, advanced once per micro-batch
        self._workspace = StepArena()
        seed = int(self._rng.integers(0, 2**31))
        with default_dtype(self.dtype_policy.np_compute_dtype):
            self.ts_encoder = TSEncoder(
                in_channels=cfg.n_variables,
                hidden_channels=cfg.hidden_channels,
                repr_dim=cfg.repr_dim,
                depth=cfg.depth,
                kernel_size=cfg.kernel_size,
                channel_independent=cfg.channel_independent,
                rng=seed,
            )
            self.image_encoder = ImageEncoder(
                repr_dim=cfg.repr_dim,
                base_channels=cfg.image_channels,
                depth=cfg.image_depth,
                rng=seed + 1,
            )
            self.view_projection = ProjectionHead(cfg.repr_dim, cfg.proj_dim, rng=seed + 2)
            self.prototype_projection = ProjectionHead(cfg.repr_dim, cfg.proj_dim, rng=seed + 3)
            self.series_projection = ProjectionHead(cfg.repr_dim, cfg.proj_dim, rng=seed + 4)
            self.image_projection = ProjectionHead(cfg.repr_dim, cfg.proj_dim, rng=seed + 5)
        self._engine_history = History()
        self.history = PretrainHistory(self._engine_history)
        #: the engine driver of the most recent / active fit() call
        self.trainer: Trainer | None = None
        #: time the training-step phases (render / augment / forward /
        #: backward / optimizer) of the next fit(); per-epoch exclusive
        #: seconds land in the history as ``profile_<phase>_seconds`` columns
        #: and in ``trainer.pipeline_summary()``.  Set it before fit().
        self.profile = False

    # ------------------------------------------------------------------ parts
    def named_modules(self) -> dict:
        """The six trainable modules of the pre-training stage, by stable name.

        The one list of them: its order is the optimizer's parameter order,
        and its names are the array prefixes of an AimTS bundle.
        """
        return {
            "ts_encoder": self.ts_encoder,
            "image_encoder": self.image_encoder,
            "view_projection": self.view_projection,
            "prototype_projection": self.prototype_projection,
            "series_projection": self.series_projection,
            "image_projection": self.image_projection,
        }

    def parameters(self):
        """All trainable parameters of the pre-training stage."""
        for module in self.named_modules().values():
            yield from module.parameters()

    def _encode_views(self, views: np.ndarray) -> tuple[Tensor, Tensor]:
        """Encode ``(G, B, M, T)`` views → per-view projections and raw representations.

        Returns ``(projections, representations)`` with shapes ``(B, G, J)``
        and ``(G, B, D)`` respectively.
        """
        G, B, M, T = views.shape
        flat = views.reshape(G * B, M, T)
        representations = self.ts_encoder(flat)  # (G*B, D)
        projections = self.view_projection(representations)  # (G*B, J)
        representations = representations.reshape(G, B, self.config.repr_dim)
        projections = projections.reshape(G, B, self.config.proj_dim).transpose(1, 0, 2)
        return projections, representations

    def compute_batch_loss(
        self,
        series: np.ndarray,
        images: np.ndarray | None,
        views_a: np.ndarray | None,
        views_b: np.ndarray | None,
        lam: np.ndarray | None,
    ) -> dict[str, Tensor]:
        """Compute all loss components for one produced batch.

        The arguments are what the produce stage returns for a ``(B, M, T)``
        batch of ``series``: its line-chart ``images``, the two augmented
        ``(G, B, M, T)`` view sets and the ``(B,)`` mixup coefficients
        ``lam`` (``None`` where the configuration does not use them).
        """
        cfg = self.config
        losses: dict[str, Tensor] = {}

        if cfg.use_prototype_loss:
            proj_a, reps_a = self._encode_views(views_a)
            proj_b, reps_b = self._encode_views(views_b)
            prototypes_a = self.prototype_projection(
                aggregate_prototype(reps_a, cfg.prototype_reduction)
            )
            prototypes_b = self.prototype_projection(
                aggregate_prototype(reps_b, cfg.prototype_reduction)
            )
            distances = pairwise_view_distances(views_a)
            temperatures = adaptive_temperatures(
                distances, tau0=cfg.tau0, mode=cfg.temperature_mode
            )
            losses["prototype"] = prototype_loss(
                proj_a,
                proj_b,
                prototypes_a,
                prototypes_b,
                temperatures,
                alpha=cfg.alpha,
                tau=cfg.tau,
                use_intra=cfg.use_intra_loss,
            )

        if cfg.use_series_image_loss:
            series_repr = self.ts_encoder(series)
            image_repr = self.image_encoder(images)
            series_proj = self.series_projection(series_repr)
            image_proj = self.image_projection(image_repr)
            losses["series_image"] = series_image_loss(
                series_proj,
                image_proj,
                beta=cfg.beta,
                tau=cfg.tau,
                mixup_mode=cfg.mixup_mode,
                lam=lam,
            )

        if not losses:
            raise RuntimeError(
                "both objectives are disabled; enable use_prototype_loss or use_series_image_loss"
            )
        total = None
        for value in losses.values():
            total = value if total is None else total + value
        losses["total"] = total
        return losses

    # ------------------------------------------------------------------ train
    def fit(
        self,
        corpus: list[TimeSeriesDataset] | np.ndarray,
        *,
        epochs: int | None = None,
        max_samples: int | None = None,
        verbose: bool = False,
        callbacks=(),
        resume_from=None,
    ) -> PretrainHistory:
        """Pre-train on a multi-source corpus via the unified training engine.

        Parameters
        ----------
        corpus:
            A list of :class:`TimeSeriesDataset` (their train splits are
            merged into one pool), an already-built pool array ``(N, M, T)``,
            or an out-of-core :class:`repro.data.corpus.ShardedCorpus` — the
            latter streams from disk per mini-batch (cast to the compute
            dtype on densification) and is never materialised.
        epochs:
            Overrides ``config.epochs`` for this call when given.
        max_samples:
            Optional cap on the pool size, useful for quick experiments.
        verbose:
            Print one line per epoch.
        callbacks:
            Extra :class:`repro.engine.Callback` instances (e.g.
            :class:`~repro.engine.EarlyStopping` on a contrastive loss, or a
            :class:`~repro.engine.Checkpointer` for mid-run checkpoints of
            the long multi-source pre-train).
        resume_from:
            Path of a :class:`~repro.engine.Checkpointer` bundle; the run
            continues from its saved epoch bit-identically (weights,
            optimizer moments and scheduler step restored; every draw is
            step-keyed), at any ``n_producers``.
        """
        cfg = self.config
        n_epochs = epochs if epochs is not None else cfg.epochs
        compute_dtype = self.dtype_policy.np_compute_dtype
        if isinstance(corpus, np.ndarray):
            pool = np.asarray(corpus, dtype=compute_dtype)
            if max_samples is not None and pool.shape[0] > max_samples:
                # seeded subsample rather than head-truncation: raw pools are
                # often class-sorted, matching build_pretraining_pool's semantics
                pool = pool[
                    np.sort(self._rng.choice(pool.shape[0], size=max_samples, replace=False))
                ]
        else:
            # dataset lists and sharded corpora both resolve here: a corpus
            # passes through (seeded-subset when max_samples caps it) and its
            # batches are cast to the compute dtype at densification time
            pool = build_pretraining_pool(
                corpus,
                length=cfg.series_length,
                n_variables=cfg.n_variables,
                max_samples=max_samples,
                seed=self._rng,
            )
            if not is_sharded_corpus(pool):
                pool = pool.astype(compute_dtype, copy=False)

        optimizer = Adam(list(self.parameters()), lr=cfg.learning_rate)
        scheduler = StepLR(optimizer, step_size=cfg.lr_step_size, gamma=cfg.lr_gamma)

        # renders are a pure function of the sample: the inline producer
        # reads the pool's leading rows from a table rendered once here, up
        # to the byte budget, and renders the rest every step; producer
        # processes render every step
        pipelined = cfg.n_producers >= 1
        self.render_cache = None
        if cfg.use_series_image_loss and cfg.cache_images and not pipelined:
            self.render_cache = RenderCache(self.renderer, max_bytes=cfg.cache_max_bytes)
            self.render_cache.precompute_pool(pool)

        loop = _PretrainLoop(self, pool, self.render_cache)
        self._open_pools(loop, list(self.parameters()), cfg, self.dtype_policy.compute_dtype)
        engine_callbacks = list(callbacks)
        if verbose:
            engine_callbacks.insert(
                0,
                ProgressLogger(
                    "pretrain",
                    fields={"loss": "loss", "proto": "prototype", "si": "series_image"},
                ),
            )
        self.trainer = Trainer(
            loop,
            optimizer,
            scheduler=scheduler,
            callbacks=engine_callbacks,
            history=self._engine_history,
            dtype_policy=self.dtype_policy,
            n_workers=cfg.n_workers,
            worker_pool=self._worker_pool,
            n_producers=cfg.n_producers,
            prefetch_depth=cfg.prefetch_depth,
            producer_pool=self._producer_pool,
            restart_policy=self.restart_policy,
            step_arena=cfg.step_arena,
            profile=self.profile,
        )
        if resume_from is not None:
            self.trainer.load_checkpoint(resume_from)
        self.trainer.fit(n_epochs)
        return self.history

    # ------------------------------------------------------------------ utils
    def encode(self, X: np.ndarray, *, batch_size: int | None = None) -> np.ndarray:
        """Encode samples with the pre-trained TS encoder (no gradients).

        Micro-batches of ``batch_size`` (default ``config.encode_batch_size``)
        run the encoder ``forward`` under ``no_grad()`` in eval mode and the
        configured compute dtype, pooling buffers in the pre-trainer's arena
        (:func:`repro.nn.inference.batched_infer`).
        """
        from repro.nn.inference import batched_infer

        return batched_infer(
            self.ts_encoder,
            np.asarray(X, dtype=self.dtype_policy.np_compute_dtype),
            batch_size=batch_size or self.config.encode_batch_size,
            workspace=self._workspace,
        )


class _PretrainLoop(TrainLoop):
    """Engine adapter for the AimTS pre-training objective.

    A step's batch is produced (:class:`_PretrainProducer`) from the
    ``(indices, series)`` payloads of :meth:`pipeline_batches`, on the parent
    or in producer processes; :meth:`batch_loss` computes the losses on it.
    Under sharded training the parent's produced batch is split along its
    samples, so the workers only compute the loss.  Worker replicas are built
    without a pool and only serve :meth:`batch_loss`.
    """

    #: contrastive prototype construction needs at least a pair per shard
    shard_min_samples = 2

    def __init__(self, pretrainer: AimTSPretrainer, pool=None, render_cache=None):
        self.pretrainer = pretrainer
        self.pool = pool
        #: handed to the inline producer (None for producer processes)
        self.render_cache = render_cache

    def worker_factory(self):
        import functools

        return functools.partial(_pretrain_worker_replica, self.pretrainer.config)

    def shard_batch(self, batch, n_shards: int) -> list[tuple]:
        """Split a produced batch; the view sets carry samples on axis 1."""
        series, images, views_a, views_b, lam = batch

        def swap(views):
            return None if views is None else views.swapaxes(0, 1)

        shards = shard_arrays(
            (series, images, swap(views_a), swap(views_b), lam),
            n_shards,
            min_samples=self.shard_min_samples,
        )
        return [
            ((part, part_images, swap(part_a), swap(part_b), part_lam), n_samples)
            for (part, part_images, part_a, part_b, part_lam), n_samples in shards
        ]

    # ---------------------------------------------------------------- pipeline
    def producer_factory(self):
        import functools

        return functools.partial(
            _pretrain_producer_replica, self.pretrainer.config, self.render_cache
        )

    def pipeline_batches(self, epoch):
        """``(indices, series)`` payloads in the stateless epoch schedule.

        The parent gathers the raw series (memmap-backed for corpora) and
        ships them with the work item; producers stay config-only replicas.
        Order derives from ``SeedSequence([seed, epoch])`` — see
        :func:`repro.data.loaders.epoch_index_batches` — so it is shared by
        every producer count and by resumed runs.
        """
        cfg = self.pretrainer.config
        dtype = self.pretrainer.dtype_policy.np_compute_dtype
        for indices in epoch_index_batches(
            self.pool, cfg.batch_size, epoch=epoch, seed=cfg.seed
        ):
            if indices.size < 2:
                continue  # contrastive losses need at least two samples
            if is_sharded_corpus(self.pool):
                series = self.pool.gather(indices).astype(dtype, copy=False)
            else:
                series = self.pool[indices]
            yield indices, series

    def pipeline_slot_nbytes(self) -> int:
        cfg = self.pretrainer.config
        itemsize = np.dtype(self.pretrainer.dtype_policy.np_compute_dtype).itemsize
        series = cfg.batch_size * cfg.n_variables * cfg.series_length * itemsize
        total = series
        if cfg.use_prototype_loss:
            total += 2 * cfg.n_augmentations * series
        if cfg.use_series_image_loss:
            total += cfg.batch_size * self.pretrainer.renderer.image_nbytes(cfg.n_variables)
            total += cfg.batch_size * 8  # the float64 mixup coefficients
        return total

    def named_modules(self) -> dict:
        return self.pretrainer.named_modules()

    def metric_names(self) -> tuple[str, ...]:
        return ("loss", "prototype", "series_image")

    def batch_loss(self, batch) -> dict:
        losses = self.pretrainer.compute_batch_loss(*batch)
        # disabled objectives log 0.0 so the history keeps the seed's fixed
        # four-curve shape under every ablation switch
        return {
            "loss": losses["total"],
            "prototype": losses.get("prototype", 0.0),
            "series_image": losses.get("series_image", 0.0),
        }
