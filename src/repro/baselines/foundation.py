"""Multi-source adaptation "foundation model" baselines (Table IV / V).

The paper compares against MOMENT (Goswami et al., 2024) and UniTS (Gao et
al., 2024), both of which pre-train one model on a large multi-source corpus
and adapt it to downstream classification.  The authors' checkpoints are not
available offline, so two mechanistically analogous baselines are provided:

* :class:`MomentLike` — masked-reconstruction pre-training (MOMENT's masked
  time-series modeling objective) on the merged multi-source pool, followed by
  fine-tuning with a classifier head.
* :class:`UniTSLike` — a unified multi-task objective combining masked
  reconstruction with instance discrimination across the pool (UniTS pre-trains
  jointly over forecasting and classification datasets; the instance
  discrimination term plays the role of the classification-task supervision).

Both reuse :class:`~repro.baselines.base.SelfSupervisedBaseline`, so the
downstream protocol (full fine-tuning + MLP classifier) is identical to
AimTS's, isolating the effect of the pre-training objective.
"""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.augmentations import Masking
from repro.baselines.base import BaselineConfig, SelfSupervisedBaseline
from repro.baselines.contrastive_utils import nt_xent
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.utils.seeding import new_rng


class _ReconstructionDecoder(nn.Module):
    """MLP decoder from a pooled representation back to the raw series."""

    def __init__(self, repr_dim: int, series_length: int, rng=None):
        super().__init__()
        self.series_length = series_length
        self.network = nn.MLP(repr_dim, [repr_dim * 2], series_length, rng=rng)

    def forward(self, representation: Tensor) -> Tensor:
        return self.network(representation)


class MomentLike(SelfSupervisedBaseline):
    """Masked time-series reconstruction pre-training (MOMENT-style)."""

    name = "MOMENT"
    api_name = "moment"

    def __init__(self, config: BaselineConfig | None = None, *, mask_ratio: float = 0.3):
        super().__init__(config)
        rng = new_rng(int(self._rng.integers(0, 2**31)))
        self.masking = Masking(mask_ratio=mask_ratio, seed=rng)
        self.decoder = _ReconstructionDecoder(
            self.config.repr_dim, self.config.series_length, rng=int(self._rng.integers(0, 2**31))
        )

    def _named_auxiliary_modules(self) -> dict:
        return {"decoder": self.decoder}

    def _manifest_init_kwargs(self) -> dict:
        return {"mask_ratio": self.masking.mask_ratio}

    def pipeline_produce(self, batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A masked view and the ``(B, T)`` channel-averaged target."""
        target_length = self.decoder.series_length
        if batch.shape[2] != target_length:
            # the decoder is sized for the pre-training pool length; resample
            from repro.data.loaders import pad_or_truncate

            batch = pad_or_truncate(batch, target_length)
        return self.masking(batch), batch.mean(axis=1)

    def batch_loss(self, produced: tuple[np.ndarray, np.ndarray]) -> Tensor:
        """Reconstruct the channel-averaged series from its masked view."""
        masked, target = produced
        reconstruction = self.decoder(self.encoder(masked))
        return F.mse_loss(reconstruction, target)


class UniTSLike(MomentLike):
    """Unified reconstruction + instance-discrimination pre-training (UniTS-style)."""

    name = "UniTS"
    api_name = "units"

    def __init__(
        self,
        config: BaselineConfig | None = None,
        *,
        mask_ratio: float = 0.4,
        contrastive_weight: float = 0.5,
        tau: float = 0.2,
    ):
        super().__init__(config, mask_ratio=mask_ratio)
        self.contrastive_weight = contrastive_weight
        self.tau = tau

    def _manifest_init_kwargs(self) -> dict:
        return {
            "mask_ratio": self.masking.mask_ratio,
            "contrastive_weight": self.contrastive_weight,
            "tau": self.tau,
        }

    def pipeline_produce(self, batch: np.ndarray) -> tuple[np.ndarray, ...]:
        """MOMENT's ``(masked, target)`` plus two masked contrast views."""
        masked, target = super().pipeline_produce(batch)
        return masked, target, self.masking(batch), self.masking(batch)

    def batch_loss(self, produced: tuple[np.ndarray, ...]) -> Tensor:
        masked, target, view_a, view_b = produced
        reconstruction_loss = super().batch_loss((masked, target))
        proj_a = self.projection(self.encoder(view_a))
        proj_b = self.projection(self.encoder(view_b))
        contrastive_loss = nt_xent(proj_a, proj_b, tau=self.tau)
        return reconstruction_loss * (1.0 - self.contrastive_weight) + contrastive_loss * self.contrastive_weight
