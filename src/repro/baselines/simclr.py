"""SimCLR adapted to time series (Chen et al., ICML 2020).

Two random augmented views of every sample are produced with a fixed
augmentation pipeline (jitter → scaling → time-warp) and contrasted with the
NT-Xent loss.  This is the "plain augmentation contrastive" control that the
single-source generalization comparison (Table III) includes.
"""

from __future__ import annotations

import numpy as np

from repro.augmentations import Compose, Jitter, Scaling, TimeWarp
from repro.baselines.base import BaselineConfig, SelfSupervisedBaseline
from repro.baselines.contrastive_utils import nt_xent
from repro.nn.tensor import Tensor
from repro.utils.seeding import new_rng


class SimCLR(SelfSupervisedBaseline):
    """Two-view NT-Xent contrastive learning with a fixed augmentation pipeline."""

    name = "SimCLR"
    api_name = "simclr"

    def __init__(self, config: BaselineConfig | None = None, *, tau: float = 0.2):
        super().__init__(config)
        self.tau = tau
        rng = new_rng(int(self._rng.integers(0, 2**31)))
        self.augmentation = Compose(
            [Jitter(sigma=0.08, seed=rng), Scaling(sigma=0.1, seed=rng), TimeWarp(strength=0.1, seed=rng)]
        )

    def _manifest_init_kwargs(self) -> dict:
        return {"tau": self.tau}

    def pipeline_produce(self, batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        view_a = self.augmentation(batch)
        view_b = self.augmentation(batch)
        return view_a, view_b

    def batch_loss(self, produced: tuple[np.ndarray, np.ndarray]) -> Tensor:
        view_a, view_b = produced
        proj_a = self.projection(self.encoder(view_a))
        proj_b = self.projection(self.encoder(view_b))
        return nt_xent(proj_a, proj_b, tau=self.tau)
