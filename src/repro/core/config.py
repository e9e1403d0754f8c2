"""Configuration dataclasses for pre-training and fine-tuning.

Defaults follow the paper where it specifies values (Adam, seed 3407, batch
size 16, StepLR decay, 5 augmentations, loss weights α/β around 0.7–0.9,
mixup γ = 0.1) and use CPU-friendly model sizes for everything the paper
leaves to its A800-scale implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.nn.inference import DEFAULT_SERVING_BATCH_SIZE
from repro.utils.validation import check_in_options, check_positive, check_probability

#: allowed settings for the ablation hooks
TEMPERATURE_MODES = ("adaptive", "fixed")
MIXUP_MODES = ("geodesic", "linear", "none")
PROTOTYPE_REDUCTIONS = ("mean", "median")
CHANNEL_AGGREGATIONS = ("concat", "mean")
COMPUTE_DTYPES = ("float32", "float64")


def _check_pipeline_knobs(n_producers: int, prefetch_depth: int, n_workers: int) -> None:
    """Shared validation of the pipelined pre-training knobs."""
    if n_producers < 0:
        raise ValueError(f"n_producers must be >= 0, got {n_producers}")
    if prefetch_depth < 2:
        raise ValueError(
            f"prefetch_depth must be >= 2 (double-buffered ring), got {prefetch_depth}"
        )
    if n_producers >= 1 and n_workers > 1:
        raise ValueError(
            "pipelined producers (n_producers >= 1) require the sequential "
            "gradient path (n_workers=1)"
        )


@dataclass
class AimTSConfig:
    """Hyper-parameters of the AimTS pre-training stage.

    Attributes
    ----------
    repr_dim, proj_dim:
        Encoder representation size and contrastive projection size ``J``.
    hidden_channels, depth, kernel_size:
        TS-encoder trunk architecture.
    image_channels, image_depth, panel_size:
        Image-encoder architecture and line-chart rendering resolution.
    cache_images, cache_max_bytes:
        Whether pre-training renders the pool's leading rows once, before the
        first step, into a read-only table (see
        :class:`repro.imaging.RenderCache`), and the byte budget of that table
        (default 256 MiB ≈ 10k panel-32 univariate float64 images; pool rows
        beyond the budget render on every step; None = unbounded).
    compute_dtype:
        Precision of the neural compute core and of the line-chart images:
        "float64" (default) is the bit-exact reference path, "float32" runs
        parameters, activations, gradients, optimizer moments and the
        rasteriser in single precision for roughly double the throughput at
        contrastive-learning-irrelevant accuracy cost (see the
        float32/float64 parity suite).
    encode_batch_size:
        Micro-batch size of the serving surfaces (``encode`` / ``predict`` /
        ``predict_proba``), which stream batches through the no-grad
        inference path.  256 (up from 64) quarters the per-micro-batch
        dispatch overhead and hands threaded BLAS wider matmuls; the
        inference arena reuses its buffers either way.
    n_workers:
        Sharded data-parallel pre-training: with ``n_workers >= 2`` every
        mini-batch is split across a persistent pool of spawn-safe gradient
        worker processes (shared-memory parameter broadcast / fixed-order
        gradient reduction, see :mod:`repro.engine.parallel`); the parent
        produces each batch and the workers compute the loss on their
        shards.  ``1`` (the default) is the sequential path.
    n_producers, prefetch_depth:
        Where the produce stage of a step runs — the two augmented view
        sets, the line-chart images and the mixup coefficients λ.
        ``n_producers=0`` (default) produces inline on the parent; with
        ``n_producers >= 1`` producer processes work ahead of the gradient
        step, publishing finished batches through a bounded shared-memory
        ring of ``prefetch_depth >= 2`` slots (see
        :class:`repro.engine.parallel.ProducerPool`).  Every draw is keyed by
        ``SeedSequence([seed, epoch, step])``, so the loss curve is
        bit-identical at any producer count, which may also change across a
        resume.  Producer processes require the sequential gradient path
        (``n_workers=1``).
    augment_batched:
        Route the augmentation bank through the vectorized batch kernels
        (bit-identical to the per-sample reference loops under the same RNG
        streams; ``False`` forces the reference paths for debugging).
    step_arena:
        Pool autograd workspaces across training steps through a
        :class:`~repro.nn.arena.StepArena` (default on).  After a warm-up
        step the hot training loop allocates no fresh large buffers; values
        are bit-identical either way.  ``False`` restores per-step
        allocation (the debugging reference).
    series_length, n_variables:
        Common shape every pre-training sample is resampled to.
    alpha:
        Weight of the inter-prototype loss within ``L_proto`` (Eq. 6).
    beta:
        Weight of the naive series-image loss within ``L_SI`` (Eq. 12).
    gamma:
        Beta-distribution parameter of the mixup coefficient λ (Eq. 9).
    tau0, tau:
        Base temperature of the adaptive intra-prototype temperature (Eq. 3)
        and the fixed temperature used by the inter-prototype and
        series-image losses.
    use_prototype_loss, use_intra_loss, use_series_image_loss, mixup_mode,
    temperature_mode, prototype_reduction, channel_independent:
        Ablation switches corresponding to Table VI and DESIGN.md.
    """

    # architecture
    repr_dim: int = 32
    proj_dim: int = 16
    hidden_channels: int = 16
    depth: int = 2
    kernel_size: int = 3
    image_channels: int = 8
    image_depth: int = 2
    panel_size: int = 32
    # imaging pipeline performance
    cache_images: bool = True
    cache_max_bytes: int | None = 256 * 1024 * 1024
    # compute core precision + serving batch size
    compute_dtype: str = "float64"
    encode_batch_size: int = DEFAULT_SERVING_BATCH_SIZE
    # pre-training parallelism (see repro.engine.parallel)
    n_workers: int = 1
    augment_batched: bool = True
    step_arena: bool = True
    # pipelined pre-training (producer processes + ring prefetch)
    n_producers: int = 0
    prefetch_depth: int = 2
    # data shape
    series_length: int = 96
    n_variables: int = 1
    channel_independent: bool = True
    #: how downstream fine-tuning combines per-variable representations of the
    #: channel-independent encoder: "concat" (task head sees every variable)
    #: or "mean" (fixed-size representation).  Pre-training always uses "mean"
    #: because prototypes need a size that does not depend on the dataset.
    channel_aggregation: str = "concat"
    # optimisation (paper Section V-A3)
    batch_size: int = 16
    learning_rate: float = 7e-3
    epochs: int = 2
    lr_step_size: int = 1
    lr_gamma: float = 0.5
    seed: int = 3407
    # loss weights
    alpha: float = 0.7
    beta: float = 0.9
    gamma: float = 0.1
    tau0: float = 0.2
    tau: float = 0.2
    # ablation switches
    use_prototype_loss: bool = True
    use_intra_loss: bool = True
    use_series_image_loss: bool = True
    temperature_mode: str = "adaptive"
    mixup_mode: str = "geodesic"
    prototype_reduction: str = "mean"
    augmentation_names: tuple[str, ...] = field(
        default=("jitter", "scaling", "time_warp", "slicing", "window_warp")
    )

    def __post_init__(self) -> None:
        for name in (
            "repr_dim",
            "proj_dim",
            "hidden_channels",
            "depth",
            "kernel_size",
            "panel_size",
            "series_length",
            "n_variables",
            "batch_size",
            "epochs",
            "lr_step_size",
        ):
            check_positive(name, getattr(self, name))
        check_positive("learning_rate", self.learning_rate)
        check_positive("lr_gamma", self.lr_gamma)
        check_probability("alpha", self.alpha)
        check_probability("beta", self.beta)
        check_positive("gamma", self.gamma)
        check_positive("tau0", self.tau0)
        check_positive("tau", self.tau)
        check_in_options("compute_dtype", self.compute_dtype, COMPUTE_DTYPES)
        check_positive("encode_batch_size", self.encode_batch_size)
        check_positive("n_workers", self.n_workers)
        _check_pipeline_knobs(self.n_producers, self.prefetch_depth, self.n_workers)
        if self.cache_max_bytes is not None:
            check_positive("cache_max_bytes", self.cache_max_bytes)
        check_in_options("temperature_mode", self.temperature_mode, TEMPERATURE_MODES)
        check_in_options("mixup_mode", self.mixup_mode, MIXUP_MODES)
        check_in_options("prototype_reduction", self.prototype_reduction, PROTOTYPE_REDUCTIONS)
        check_in_options("channel_aggregation", self.channel_aggregation, CHANNEL_AGGREGATIONS)
        if not self.augmentation_names:
            raise ValueError("augmentation_names must not be empty")

    @property
    def n_augmentations(self) -> int:
        """The bank size G."""
        return len(self.augmentation_names)


@dataclass
class FineTuneConfig:
    """Hyper-parameters of downstream fine-tuning (paper Section V-A3).

    ``step_arena`` mirrors :attr:`AimTSConfig.step_arena`: pool autograd
    workspaces across fine-tuning steps (bit-identical values; ``False`` =
    per-step allocation).
    """

    learning_rate: float = 1e-3
    epochs: int = 20
    batch_size: int = 8
    classifier_hidden_dim: int | None = 64
    dropout: float = 0.1
    freeze_encoder: bool = False
    step_arena: bool = True
    seed: int = 3407

    def __post_init__(self) -> None:
        check_positive("learning_rate", self.learning_rate)
        check_positive("epochs", self.epochs)
        check_positive("batch_size", self.batch_size)
        if self.classifier_hidden_dim is not None:
            check_positive("classifier_hidden_dim", self.classifier_hidden_dim)
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
