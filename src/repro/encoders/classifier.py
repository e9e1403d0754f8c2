"""The downstream classification head trained during fine-tuning."""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.nn.tensor import Tensor
from repro.utils.seeding import new_rng
from repro.utils.validation import check_positive


class ClassifierHead(nn.Module):
    """MLP classifier ``P_cls`` mapping representations to class logits.

    The paper trains an MLP classifier on top of the (fine-tuned) TS encoder.
    A single hidden layer is used by default; ``hidden_dim=None`` degrades to a
    linear probe, which the evaluation protocols use for the cheaper baselines.
    """

    def __init__(
        self,
        in_dim: int,
        n_classes: int,
        *,
        hidden_dim: int | None = 64,
        dropout: float = 0.1,
        rng=None,
    ):
        super().__init__()
        check_positive("in_dim", in_dim)
        check_positive("n_classes", n_classes)
        rng = new_rng(rng)
        self.n_classes = n_classes
        if hidden_dim is None:
            self.network = nn.Linear(in_dim, n_classes, rng=rng)
        else:
            self.network = nn.MLP(in_dim, [hidden_dim], n_classes, dropout=dropout, rng=rng)

    def forward(self, x: Tensor | np.ndarray) -> Tensor:
        if not isinstance(x, Tensor):
            x = Tensor(x)
        return self.network(x)
