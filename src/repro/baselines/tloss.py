"""T-Loss baseline (Franceschi et al., NeurIPS 2019).

T-Loss samples a reference subseries, a positive subseries contained in the
reference, and negative subseries drawn from other samples, and optimises a
triplet-style logistic loss:

    -log sigma(f(ref) . f(pos)) - sum_k log sigma(-f(ref) . f(neg_k)).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import BaselineConfig, SelfSupervisedBaseline
from repro.baselines.contrastive_utils import crop_window
from repro.nn import functional as F
from repro.nn.tensor import Tensor


class TLoss(SelfSupervisedBaseline):
    """Triplet loss over random subseries."""

    name = "T-Loss"
    api_name = "tloss"

    def __init__(self, config: BaselineConfig | None = None, *, n_negatives: int = 4):
        super().__init__(config)
        self.n_negatives = n_negatives

    def _manifest_init_kwargs(self) -> dict:
        return {"n_negatives": self.n_negatives}

    def pipeline_produce(self, batch: np.ndarray) -> tuple[np.ndarray, ...]:
        """``(reference, positive, *negatives)``: ``2 + n_negatives`` crops.

        The negatives stay separate ``(B, M, T)`` arrays (not one stacked
        array) so the default sharding splits every one along the batch.
        """
        B, M, T = batch.shape
        ref_window = max(8, int(round(0.8 * T)))
        pos_window = max(4, int(round(0.4 * T)))
        ref_start = int(self._rng.integers(0, T - ref_window + 1))
        pos_start = ref_start + int(self._rng.integers(0, ref_window - pos_window + 1))
        produced = [
            crop_window(batch, ref_start, ref_window),
            crop_window(batch, pos_start, pos_window),
        ]
        for _ in range(self.n_negatives):
            permutation = self._rng.permutation(B)
            # avoid accidental self-pairs which would make a "negative" positive
            permutation = np.where(permutation == np.arange(B), (permutation + 1) % B, permutation)
            neg_start = int(self._rng.integers(0, T - pos_window + 1))
            produced.append(crop_window(batch[permutation], neg_start, pos_window))
        return tuple(produced)

    def batch_loss(self, produced: tuple[np.ndarray, ...]) -> Tensor:
        reference, positive, *negatives = produced
        ref_proj = F.l2_normalize(self.projection(self.encoder(reference)), axis=-1)
        pos_proj = F.l2_normalize(self.projection(self.encoder(positive)), axis=-1)
        positive_score = (ref_proj * pos_proj).sum(axis=1)
        loss = -(positive_score.sigmoid().clamp_min(1e-8).log()).mean()
        for negative in negatives:
            neg_proj = F.l2_normalize(self.projection(self.encoder(negative)), axis=-1)
            negative_score = (ref_proj * neg_proj).sum(axis=1)
            loss = loss - ((negative_score * -1.0).sigmoid().clamp_min(1e-8).log()).mean()
        return loss
