"""``repro.engine`` — the unified training engine behind every loop.

One :class:`Trainer` drives AimTS multi-source pre-training, downstream
fine-tuning and every self-supervised baseline, so cross-cutting training
capabilities are implemented exactly once as callbacks:

* :class:`TrainLoop` — the objective contract: a step-keyed produce stage
  (every pre-training objective) or ``make_batches(rng, epoch)``
  (fine-tuning), + ``batch_loss(batch)`` plus checkpointing introspection.
* :class:`TrainState` — epoch/step counters, history and RNG snapshots.
* :class:`Callback` — the event protocol (``on_fit_start`` /
  ``on_epoch_start`` / ``on_batch_end`` / ``on_backward_end`` /
  ``on_epoch_end`` / ``on_fit_end``) with stock implementations:
  :class:`LossHistory`, :class:`ProgressLogger`, :class:`LRSchedulerCallback`,
  :class:`EarlyStopping`, :class:`GradClip`, :class:`GradAccumulation` and
  :class:`Checkpointer`.
* :class:`Trainer` — the epoch/step mechanics, gradient accumulation and
  resumable full-bundle checkpoints (``Trainer.resume(path)`` continues a
  killed run bit-identically: optimizer moments, scheduler step and every
  per-epoch RNG stream restored).
* :mod:`repro.engine.parallel` — sharded data-parallel gradient workers:
  ``Trainer(..., n_workers=N)`` splits every batch across a persistent
  spawn-safe :class:`GradientWorkerPool` with shared-memory parameter
  broadcast and fixed-order gradient reduction (``n_workers=1`` stays the
  bit-exact sequential path) — and pipelined batch producers:
  ``Trainer(..., n_producers=N)`` runs a loop's produce stage (render +
  augment) ahead of the gradient step through a :class:`ProducerPool`
  publishing into a bounded shared-memory :class:`RingArena`, with per-batch
  streams keyed by :func:`derive_step_seed` so the curve is bit-identical at
  any producer count (``n_producers=0`` produces inline on the parent).

A custom training capability is one small class::

    from repro.engine import Callback

    class NaNGuard(Callback):
        def on_batch_end(self, trainer, logs):
            if not np.isfinite(logs["loss"]):
                trainer.state.stop_training = True
                trainer.state.stop_reason = "loss diverged"

    model.pretrain(corpus, callbacks=[NaNGuard()])
"""

from repro.engine.callbacks import (
    Callback,
    Checkpointer,
    EarlyStopping,
    GradAccumulation,
    GradClip,
    LossHistory,
    LRSchedulerCallback,
    ProgressLogger,
)
from repro.engine.history import History, LossCurve
from repro.engine.loop import TrainLoop, dropout_rngs, shard_arrays
from repro.engine.parallel import (
    GradientWorkerPool,
    ProducerPool,
    RestartPolicy,
    RingArena,
    WorkerError,
    derive_step_seed,
)
from repro.engine.state import DtypePolicy, TrainState, get_rng_state, set_rng_state
from repro.engine.trainer import CHECKPOINT_KIND, CHECKPOINT_TAG, Trainer

__all__ = [
    "Trainer",
    "TrainLoop",
    "GradientWorkerPool",
    "ProducerPool",
    "RestartPolicy",
    "RingArena",
    "WorkerError",
    "derive_step_seed",
    "shard_arrays",
    "TrainState",
    "DtypePolicy",
    "History",
    "LossCurve",
    "Callback",
    "LossHistory",
    "ProgressLogger",
    "LRSchedulerCallback",
    "EarlyStopping",
    "GradClip",
    "GradAccumulation",
    "Checkpointer",
    "dropout_rngs",
    "get_rng_state",
    "set_rng_state",
    "CHECKPOINT_TAG",
    "CHECKPOINT_KIND",
]
