"""``repro.nn`` — a from-scratch NumPy deep-learning substrate.

The AimTS paper is implemented in PyTorch; PyTorch is not available in this
offline environment, so this subpackage provides the minimal-but-complete
substrate the framework needs:

* :class:`~repro.nn.tensor.Tensor` — reverse-mode automatic differentiation
  over NumPy arrays with broadcasting-aware gradients.
* :mod:`~repro.nn.functional` — convolutions, pooling, normalisation and the
  loss primitives used by the contrastive objectives.
* :mod:`~repro.nn.layers` — ``Module`` based layers (Linear, Conv1d, Conv2d,
  BatchNorm, Dropout, activations, containers).
* :mod:`~repro.nn.arena` — :class:`~repro.nn.arena.StepArena`, the buffer
  pool training steps and inference micro-batches allocate from.
* :mod:`~repro.nn.inference` — the convolution forward kernels, load-time
  Conv→BatchNorm folding and the micro-batch loop behind ``encode`` /
  ``predict`` (``Module.infer``: ``forward`` under ``no_grad()``).
* :mod:`~repro.nn.flat` — flat per-dtype parameter/gradient packing used by
  the sharded data-parallel workers (:mod:`repro.engine.parallel`).
* :mod:`~repro.nn.optim` — SGD, Adam and AdamW optimizers.
* :mod:`~repro.nn.schedulers` — StepLR and cosine learning-rate schedules.
* :mod:`~repro.nn.serialization` — ``state_dict`` save/load as ``.npz``.

The API deliberately mirrors (a small subset of) PyTorch so that the AimTS
model code reads like the original.
"""

from repro.nn import functional, inference, init
from repro.nn.arena import StepArena
from repro.nn.flat import FlatLayout
from repro.nn.layers import (
    GELU,
    MLP,
    AdaptiveAvgPool1d,
    AdaptiveAvgPool2d,
    BatchNorm1d,
    BatchNorm2d,
    Conv1d,
    Conv2d,
    Dropout,
    Flatten,
    Identity,
    LayerNorm,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
)
from repro.nn.module import Module, Parameter
from repro.nn.optim import SGD, Adam, AdamW, Optimizer
from repro.nn.schedulers import CosineAnnealingLR, LRScheduler, StepLR
from repro.nn.serialization import load_state_dict, save_state_dict
from repro.nn.tensor import (
    Tensor,
    default_dtype,
    get_default_dtype,
    no_grad,
    set_default_dtype,
)

__all__ = [
    "Tensor",
    "no_grad",
    "default_dtype",
    "get_default_dtype",
    "set_default_dtype",
    "Module",
    "Parameter",
    "functional",
    "inference",
    "init",
    "StepArena",
    "FlatLayout",
    "Linear",
    "Conv1d",
    "Conv2d",
    "BatchNorm1d",
    "BatchNorm2d",
    "LayerNorm",
    "Dropout",
    "ReLU",
    "GELU",
    "Tanh",
    "Sigmoid",
    "Identity",
    "Flatten",
    "MaxPool2d",
    "AdaptiveAvgPool1d",
    "AdaptiveAvgPool2d",
    "Sequential",
    "MLP",
    "Optimizer",
    "SGD",
    "Adam",
    "AdamW",
    "LRScheduler",
    "StepLR",
    "CosineAnnealingLR",
    "save_state_dict",
    "load_state_dict",
]
