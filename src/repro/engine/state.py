"""Trainer state: epoch/step counters, RNG snapshots and the dtype policy.

:class:`TrainState` is the mutable progress record one :class:`~repro.engine.
trainer.Trainer` advances; everything needed to continue a killed run
bit-identically — completed epochs, optimizer steps, the history and every
named RNG stream — round-trips through the checkpoint bundle (see
:meth:`~repro.engine.trainer.Trainer.save_checkpoint`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.engine.history import History


@dataclass
class TrainState:
    """Mutable progress of one training run.

    Attributes
    ----------
    epoch:
        Number of *completed* epochs (``Trainer.fit(n)`` runs epochs
        ``epoch .. n-1``, so a state restored at ``epoch=k`` resumes with
        epoch ``k``).
    step:
        Optimizer steps taken (differs from ``batch`` under gradient
        accumulation).
    batch:
        Mini-batches consumed.
    history:
        The structured per-epoch metric curves recorded so far.
    stop_training:
        Set by callbacks (e.g. :class:`~repro.engine.callbacks.EarlyStopping`)
        to end the run after the current epoch.
    stop_reason:
        Human-readable reason the run stopped early, if it did.
    """

    epoch: int = 0
    step: int = 0
    batch: int = 0
    history: History = field(default_factory=History)
    stop_training: bool = False
    stop_reason: str | None = None

    def progress(self) -> dict[str, int]:
        """The JSON-serializable counter block stored in checkpoints."""
        return {"epoch": self.epoch, "step": self.step, "batch": self.batch}

    def restore_progress(self, progress: dict) -> None:
        """Restore the counters saved by :meth:`progress`."""
        self.epoch = int(progress["epoch"])
        self.step = int(progress["step"])
        self.batch = int(progress.get("batch", 0))
        self.stop_training = False
        self.stop_reason = None


@dataclass(frozen=True)
class DtypePolicy:
    """The precision policy a trainer (and its loop) runs under.

    Configured once on the trainer instead of per loop: ``compute_dtype`` is
    the autograd/parameter precision — "float64" is the bit-exact reference
    path, "float32" halves the compute core's memory traffic (parameters,
    activations, gradients, optimizer moments and rendered images all stay
    float32; see ``AimTSConfig.compute_dtype``).

    :meth:`Trainer.fit <repro.engine.trainer.Trainer.fit>` and the
    estimators' serving surfaces apply ``compute_dtype`` through the
    :func:`repro.nn.tensor.default_dtype` scope.
    """

    compute_dtype: str = "float64"

    def __post_init__(self) -> None:
        if self.compute_dtype not in ("float32", "float64"):
            raise ValueError(
                f"compute_dtype must be 'float32' or 'float64', got {self.compute_dtype!r}"
            )

    @property
    def np_compute_dtype(self) -> np.dtype:
        """The compute precision as a NumPy dtype."""
        return np.dtype(self.compute_dtype)


def get_rng_state(generator: np.random.Generator) -> dict:
    """Snapshot a NumPy generator as a JSON-serializable state dict."""
    return generator.bit_generator.state


def set_rng_state(generator: np.random.Generator, state: dict) -> None:
    """Restore a snapshot taken by :func:`get_rng_state` *in place*.

    The generator object keeps its identity, so every component sharing it
    (batch iterators, mixup, augmentations) sees the restored stream.
    """
    generator.bit_generator.state = state
