"""TNC baseline (Tonekaboni et al., ICLR 2021).

Temporal Neighborhood Coding treats windows that are temporally close as
positives and windows far away (or from other samples) as negatives, trained
with a discriminator-style logistic loss.  This reimplementation uses window
pairs with a small vs. large temporal offset.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import BaselineConfig, SelfSupervisedBaseline
from repro.baselines.contrastive_utils import crop_window
from repro.nn import functional as F
from repro.nn.tensor import Tensor


class TNC(SelfSupervisedBaseline):
    """Temporal neighborhood coding with a bilinear-free logistic objective."""

    name = "TNC"
    api_name = "tnc"

    def __init__(self, config: BaselineConfig | None = None, *, window_ratio: float = 0.4):
        super().__init__(config)
        self.window_ratio = window_ratio

    def _manifest_init_kwargs(self) -> dict:
        return {"window_ratio": self.window_ratio}

    def pipeline_produce(self, batch: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Anchor, temporal-neighbour and distant windows of every sample."""
        T = batch.shape[2]
        window = max(4, int(round(self.window_ratio * T)))
        anchor_start = int(self._rng.integers(0, T - window + 1))
        # neighbour: small offset from the anchor
        max_neighbour_offset = max(1, window // 4)
        neighbour_start = int(
            np.clip(anchor_start + self._rng.integers(-max_neighbour_offset, max_neighbour_offset + 1), 0, T - window)
        )
        # distant window: opposite end of the series
        distant_start = (anchor_start + T // 2) % max(1, T - window + 1)
        return (
            crop_window(batch, anchor_start, window),
            crop_window(batch, neighbour_start, window),
            crop_window(batch, distant_start, window),
        )

    def batch_loss(self, produced: tuple[np.ndarray, np.ndarray, np.ndarray]) -> Tensor:
        anchor, neighbour, distant = produced
        anchor_proj = F.l2_normalize(self.projection(self.encoder(anchor)), axis=-1)
        neighbour_proj = F.l2_normalize(self.projection(self.encoder(neighbour)), axis=-1)
        distant_proj = F.l2_normalize(self.projection(self.encoder(distant)), axis=-1)

        positive_score = (anchor_proj * neighbour_proj).sum(axis=1)
        negative_score = (anchor_proj * distant_proj).sum(axis=1)
        positive_loss = -(positive_score.sigmoid().clamp_min(1e-8).log()).mean()
        negative_loss = -((negative_score * -1.0).sigmoid().clamp_min(1e-8).log()).mean()
        return positive_loss + negative_loss
