"""TS2Vec-style contrastive baseline (Yue et al., AAAI 2022).

TS2Vec contrasts representations of two *augmented context views*: two
overlapping crops of the same series whose shared region should produce
consistent representations, with other samples in the batch as negatives.
This reimplementation keeps the overlapping-crop view construction and the
instance-level part of the hierarchical loss (the timestamp-level terms
collapse once representations are pooled over time, which is what our
fixed-size encoder produces).

It also exposes :meth:`SelfSupervisedBaseline.pretrain_multi_source`, used by
the Fig. 8d experiment to show that naive multi-source pre-training of TS2Vec
suffers negative transfer while AimTS does not.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import BaselineConfig, SelfSupervisedBaseline
from repro.baselines.contrastive_utils import crop_window, nt_xent
from repro.nn.tensor import Tensor


class TS2Vec(SelfSupervisedBaseline):
    """Overlapping-crop contextual contrastive learning."""

    name = "TS2Vec"
    api_name = "ts2vec"

    def __init__(self, config: BaselineConfig | None = None, *, tau: float = 0.2, min_overlap: float = 0.3):
        super().__init__(config)
        self.tau = tau
        self.min_overlap = min_overlap

    def _manifest_init_kwargs(self) -> dict:
        return {"tau": self.tau, "min_overlap": self.min_overlap}

    def pipeline_produce(self, batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Two crops with a guaranteed overlapping region (the context views)."""
        T = batch.shape[2]
        window = max(8, int(round(0.7 * T)))
        max_offset = max(1, int((1.0 - self.min_overlap) * window))
        start_a = int(self._rng.integers(0, max(1, T - window + 1)))
        offset = int(self._rng.integers(0, max_offset))
        start_b = min(max(0, start_a + offset), max(0, T - window))
        return crop_window(batch, start_a, window), crop_window(batch, start_b, window)

    def batch_loss(self, produced: tuple[np.ndarray, np.ndarray]) -> Tensor:
        crop_a, crop_b = produced
        proj_a = self.projection(self.encoder(crop_a))
        proj_b = self.projection(self.encoder(crop_b))
        return nt_xent(proj_a, proj_b, tau=self.tau)
