"""The :class:`TrainLoop` contract every migrated loop implements.

A loop owns *what* is trained (modules, batches, the loss); the
:class:`~repro.engine.trainer.Trainer` owns *how* (epochs, optimizer steps,
gradient accumulation, callbacks, checkpoints).  A loop supplies its batches
— a produce stage (pre-training) or ``make_batches(rng, epoch)``
(fine-tuning) — plus one ``batch_loss(batch)`` and the introspection hooks
the trainer needs for checkpointing.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor


class TrainLoop:
    """Base class / contract for one trainable objective.

    Subclasses supply batches in one of two ways, plus one loss:

    a produce stage
        :meth:`producer_factory` and :meth:`pipeline_batches`.  ``produce``
        is the parameter-free part of a step (views, crops, masks, renders,
        random coefficients) and derives every stream from
        ``derive_step_seed(seed, epoch, step)``, so running it on the parent
        (``n_producers=0``) or in any number of producer processes gives
        bit-identical losses.  A loop whose :meth:`producer_factory` is not
        ``None`` always trains this way; every pre-training objective does.
    ``make_batches(rng, epoch)``
        Yield the epoch's mini-batches in order (fine-tuning).  Any
        shuffling must draw from ``rng`` (or from a generator that *shares*
        it), so the trainer can snapshot and restore the stream for
        bit-identical resume.
    ``batch_loss(batch)``
        Return the scalar loss :class:`~repro.nn.tensor.Tensor` for one
        (produced or made) batch, or a dict whose ``"loss"`` entry is that
        tensor; extra dict entries (tensors or floats) are logged as
        additional metrics.  A pre-training loss draws nothing at random:
        sharded gradient workers compute it on slices of the parent's batch,
        and a respawned worker recomputes it to replay a step
        bit-identically.  (Fine-tuning never shards; its dropout draws from
        the checkpointed :meth:`named_rngs` streams.)  A produced batch may
        hold zero-copy views into the producer ring, valid for this step
        only.

    and the checkpointing hooks:

    ``named_modules()``
        Stable name → :class:`~repro.nn.module.Module` mapping of everything
        the optimizer trains (names become checkpoint key prefixes).
    ``named_rngs()``
        Stable name → :class:`numpy.random.Generator` mapping of every RNG
        stream a made batch draws from (fine-tuning's shuffle and dropout);
        all are snapshotted into checkpoints and restored by
        :meth:`~repro.engine.trainer.Trainer.resume`.  Step-keyed streams
        need none.

    Loops that support sharded data-parallel training (``Trainer(...,
    n_workers=N)``) additionally provide ``worker_factory`` — a picklable
    zero-argument ``factory()`` that rebuilds a replica with
    ``parameters()`` / ``batch_loss()`` / ``named_modules()`` inside a spawn
    worker — and may tune :attr:`shard_min_samples` / :meth:`shard_batch`.
    """

    #: smallest shard :meth:`shard_batch` will produce (contrastive
    #: objectives need at least a pair of samples per shard)
    shard_min_samples = 1

    def named_modules(self) -> dict[str, Module]:  # pragma: no cover - interface
        raise NotImplementedError

    def parameters(self) -> Iterator[Parameter]:
        """Every trainable parameter, in stable :meth:`named_modules` order."""
        for module in self.named_modules().values():
            yield from module.parameters()

    def make_batches(self, rng: np.random.Generator, epoch: int) -> Iterable:  # pragma: no cover
        raise NotImplementedError

    def batch_loss(self, batch) -> Tensor | dict:  # pragma: no cover - interface
        raise NotImplementedError

    def named_rngs(self) -> dict[str, np.random.Generator]:
        """RNG streams to snapshot in checkpoints (none by default)."""
        return {}

    def metric_names(self) -> tuple[str, ...]:
        """Metrics every epoch must record, even with zero usable batches.

        An epoch whose batches were all filtered out (e.g. a pool too small
        for the contrastive two-sample minimum) logs ``0.0`` for each of
        these, keeping curve lengths equal across metrics.
        """
        return ("loss",)

    # ------------------------------------------------------------------ sharding
    def worker_factory(self):
        """Picklable zero-argument ``factory()`` building a replica.

        Returns ``None`` (the default) when the loop does not support
        sharded training; the trainer then rejects ``n_workers > 1``.
        """
        return None

    def shard_batch(self, batch, n_shards: int) -> list[tuple]:
        """Split one batch into ``[(sub_batch, n_samples), ...]`` shards."""
        return shard_arrays(batch, n_shards, min_samples=self.shard_min_samples)

    # ---------------------------------------------------------------- pipeline
    def producer_factory(self):
        """Picklable ``factory(producer_index)`` building a batch producer,
        an object with ``produce(epoch, step, payload)``.

        Returns ``None`` (the default) when the loop has no produce stage:
        it trains on :meth:`make_batches` and the trainer rejects
        ``n_producers >= 1``.
        """
        return None

    def pipeline_batches(self, epoch: int) -> Iterable:  # pragma: no cover - interface
        """Lazily yield the epoch's produce payloads in schedule (step) order.

        Must be *stateless in epoch*: the schedule derives from
        ``SeedSequence([seed, epoch])``, not from a shared mutable iterator —
        so any producer (or a resumed run) can regenerate it exactly.
        """
        raise NotImplementedError

    def pipeline_slot_nbytes(self) -> int:
        """Estimated bytes of one produced batch (ring slot sizing hint).

        ``0`` lets the pool pick a generic default; oversize batches still
        work via the pickle fallback, just slower.
        """
        return 0


def shard_arrays(batch, n_shards: int, *, min_samples: int = 1) -> list[tuple]:
    """Split a batch structure into contiguous in-order sub-batches.

    ``batch`` may be one ``(B, ...)`` array or a tuple/list mixing arrays
    (split along axis 0 when their leading size matches ``B``), ``None`` and
    scalars (passed through).  Shards are contiguous index ranges — the order
    is part of the parallel determinism contract — and never smaller than
    ``min_samples`` (the shard count shrinks instead).  Returns
    ``[(sub_batch, n_samples), ...]``.
    """
    leaves = batch if isinstance(batch, (tuple, list)) else (batch,)
    batch_size = next(
        (leaf.shape[0] for leaf in leaves if isinstance(leaf, np.ndarray)), None
    )
    if batch_size is None:
        raise ValueError("shard_arrays found no ndarray leaf to split on")
    n_effective = max(1, min(int(n_shards), batch_size // max(int(min_samples), 1)))
    bounds = np.linspace(0, batch_size, n_effective + 1).astype(int)

    def take(leaf, start, stop):
        if isinstance(leaf, np.ndarray) and leaf.ndim >= 1 and leaf.shape[0] == batch_size:
            return leaf[start:stop]
        return leaf

    shards = []
    for start, stop in zip(bounds[:-1], bounds[1:]):
        if stop <= start:
            continue
        if isinstance(batch, (tuple, list)):
            sub = type(batch)(take(leaf, start, stop) for leaf in batch)
        else:
            sub = take(batch, start, stop)
        shards.append((sub, int(stop - start)))
    return shards


def dropout_rngs(module: Module, prefix: str = "dropout") -> dict[str, np.random.Generator]:
    """Collect the RNGs of every :class:`~repro.nn.layers.Dropout` in ``module``.

    Keys are ``{prefix}.{i}`` in module-traversal order, which is stable for a
    fixed architecture — good enough for checkpoint round-trips.
    """
    from repro.nn.layers import Dropout

    rngs: dict[str, np.random.Generator] = {}
    index = 0
    for child in module.modules():
        if isinstance(child, Dropout):
            rngs[f"{prefix}.{index}"] = child._rng
            index += 1
    return rngs
