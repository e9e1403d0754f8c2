"""TS-TCC-style baseline (Eldele et al., IJCAI 2021).

TS-TCC creates a *weak* view (jitter + scaling) and a *strong* view
(permutation + jitter) of every sample, then applies temporal and contextual
contrasting across the two views.  With a pooled-representation encoder the
two contrasting heads reduce to a cross-view InfoNCE between the weak and
strong contexts, which is what this reimplementation computes.
"""

from __future__ import annotations

import numpy as np

from repro.augmentations import Compose, Jitter, Permutation, Scaling
from repro.baselines.base import BaselineConfig, SelfSupervisedBaseline
from repro.baselines.contrastive_utils import nt_xent
from repro.nn.tensor import Tensor
from repro.utils.seeding import new_rng


class TSTCC(SelfSupervisedBaseline):
    """Weak/strong augmentation cross-view contrastive learning."""

    name = "TS-TCC"
    api_name = "tstcc"

    def __init__(self, config: BaselineConfig | None = None, *, tau: float = 0.2):
        super().__init__(config)
        self.tau = tau
        seed = int(self._rng.integers(0, 2**31))
        rng = new_rng(seed)
        self.weak_augmentation = Compose(
            [Jitter(sigma=0.05, seed=rng), Scaling(sigma=0.1, seed=rng)]
        )
        self.strong_augmentation = Compose(
            [Permutation(max_segments=5, seed=rng), Jitter(sigma=0.1, seed=rng)]
        )

    def _manifest_init_kwargs(self) -> dict:
        return {"tau": self.tau}

    def pipeline_produce(self, batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.weak_augmentation(batch), self.strong_augmentation(batch)

    def batch_loss(self, produced: tuple[np.ndarray, np.ndarray]) -> Tensor:
        weak, strong = produced
        proj_weak = self.projection(self.encoder(weak))
        proj_strong = self.projection(self.encoder(strong))
        return nt_xent(proj_weak, proj_strong, tau=self.tau)
