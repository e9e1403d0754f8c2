"""Small shared loss helpers for the contrastive baselines."""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.tensor import Tensor


def nt_xent(view_a: Tensor, view_b: Tensor, tau: float = 0.2) -> Tensor:
    """NT-Xent / InfoNCE between two aligned batches of projections.

    ``view_a[i]`` and ``view_b[i]`` form the positive pair; all other samples
    in either view are negatives.  Both inputs are L2-normalised internally.
    """
    view_a = F.l2_normalize(view_a, axis=-1)
    view_b = F.l2_normalize(view_b, axis=-1)
    batch = view_a.shape[0]
    eye = Tensor(np.eye(batch))
    sims_ab = (view_a @ view_b.transpose()) * (1.0 / tau)
    sims_aa = (view_a @ view_a.transpose()) * (1.0 / tau)
    positives = (sims_ab * eye).sum(axis=1)
    denominator = (sims_ab.exp() + sims_aa.exp() * (1.0 - eye)).sum(axis=1)
    loss_a = denominator.log() - positives
    sims_ba = sims_ab.transpose()
    sims_bb = (view_b @ view_b.transpose()) * (1.0 / tau)
    denominator_b = (sims_ba.exp() + sims_bb.exp() * (1.0 - eye)).sum(axis=1)
    loss_b = denominator_b.log() - positives
    return (loss_a + loss_b).mean() * 0.5


def crop_window(batch: np.ndarray, start: int, window: int) -> np.ndarray:
    """Extract a fixed window and linearly resample it to the original length."""
    B, M, T = batch.shape
    stop = min(start + window, T)
    crop = batch[:, :, start:stop]
    grid = np.linspace(0.0, 1.0, T)
    crop_grid = np.linspace(0.0, 1.0, crop.shape[2])
    out = np.empty_like(batch)
    for i in range(B):
        for m in range(M):
            out[i, m] = np.interp(grid, crop_grid, crop[i, m])
    return out
