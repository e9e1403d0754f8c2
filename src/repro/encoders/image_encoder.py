"""The image encoder ``F_I`` over rendered line-chart images."""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.utils.seeding import new_rng
from repro.utils.validation import check_positive


class ImageEncoder(nn.Module):
    """A compact convolutional network mapping ``(B, 3, H, W)`` → ``(B, repr_dim)``.

    The architecture is a standard strided-convolution stack (conv → BN → ReLU,
    downsampling by 2 at each stage) followed by global average pooling and a
    linear head.  It plays the role of the paper's image encoder; the paper
    does not prescribe a specific backbone, only that the image branch encodes
    structural information of the rendered series.
    """

    def __init__(
        self,
        repr_dim: int = 32,
        *,
        base_channels: int = 8,
        depth: int = 3,
        rng=None,
    ):
        super().__init__()
        check_positive("repr_dim", repr_dim)
        check_positive("base_channels", base_channels)
        check_positive("depth", depth)
        rng = new_rng(rng)
        self.repr_dim = repr_dim
        layers: list[nn.Module] = []
        in_channels = 3
        channels = base_channels
        for _ in range(depth):
            layers.append(nn.Conv2d(in_channels, channels, 3, stride=2, padding=1, rng=rng))
            layers.append(nn.BatchNorm2d(channels))
            layers.append(nn.ReLU())
            in_channels = channels
            channels = min(channels * 2, 64)
        self.trunk = nn.Sequential(*layers)
        self.head = nn.Linear(in_channels, repr_dim, rng=rng)

    def forward(self, images: Tensor | np.ndarray) -> Tensor:
        """Encode a batch of RGB images into ``(B, repr_dim)`` representations."""
        if not isinstance(images, Tensor):
            images = Tensor(images)
        if images.ndim != 4:
            raise ValueError(f"ImageEncoder expects (B, 3, H, W) input, got shape {images.shape}")
        hidden = self.trunk(images)
        pooled = F.adaptive_avg_pool2d(hidden, 1).reshape(hidden.shape[0], hidden.shape[1])
        return self.head(pooled)
