"""The time-series encoder ``F_TS``.

A stack of dilated 1-D convolutions with residual connections (the same
family of encoder used by TS2Vec and the AimTS paper), followed by global
average pooling over time.  With ``channel_independent=True`` (the paper's
setting) every variable is encoded separately by the same weights and the
resulting per-variable representations are averaged, so one pre-trained
encoder transfers across datasets with different numbers of variables.
"""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.utils.seeding import new_rng
from repro.utils.validation import check_positive


class DilatedConvBlock(nn.Module):
    """Residual block: Conv1d(dilated) → ReLU → Conv1d(dilated) + skip."""

    def __init__(self, channels: int, kernel_size: int, dilation: int, rng=None):
        super().__init__()
        rng = new_rng(rng)
        padding = (kernel_size - 1) * dilation // 2
        self.conv1 = nn.Conv1d(
            channels, channels, kernel_size, padding=padding, dilation=dilation, rng=rng
        )
        self.conv2 = nn.Conv1d(
            channels, channels, kernel_size, padding=padding, dilation=dilation, rng=rng
        )
        #: fused conv+relu / add+relu autograd nodes (bit-identical to the
        #: decomposed graph; False = the reference graph, for A/B runs)
        self.fused = True

    def forward(self, x: Tensor) -> Tensor:
        if self.fused:
            # fused conv+relu and add+relu nodes: bit-identical to the
            # decomposed conv().relu() / (hidden + x).relu() graphs, half
            # the autograd nodes
            hidden = self.conv1(x, relu=True)
            hidden = self.conv2(hidden)
            return hidden.add_relu(x)
        hidden = self.conv1(x).relu()
        hidden = self.conv2(hidden)
        return (hidden + x).relu()


class TSEncoder(nn.Module):
    """Dilated convolutional encoder producing one representation per sample.

    Parameters
    ----------
    in_channels:
        Number of input variables fed to the convolution stack.  Ignored when
        ``channel_independent`` is true (each variable is treated as a separate
        univariate series).
    hidden_channels:
        Width of the convolutional trunk.
    repr_dim:
        Dimension of the output representation ``r_i``.
    depth:
        Number of dilated residual blocks; dilations grow as ``2**i``.
    kernel_size:
        Convolution kernel size.
    channel_independent:
        Encode each variable separately with shared weights (the paper's
        configuration); the per-variable representations are then combined
        according to ``channel_aggregation``.
    channel_aggregation:
        How per-variable representations are combined when
        ``channel_independent`` is true: ``"mean"`` averages them into a
        fixed ``repr_dim`` vector (useful when a fixed-size representation is
        needed regardless of the number of variables, e.g. during multi-source
        pre-training), ``"concat"`` concatenates them into an
        ``n_variables * repr_dim`` vector for the task-specific head (the
        usual channel-independence setup for classification, where only the
        encoder weights — not the head — transfer across datasets).
    """

    def __init__(
        self,
        in_channels: int = 1,
        hidden_channels: int = 16,
        repr_dim: int = 32,
        *,
        depth: int = 3,
        kernel_size: int = 3,
        channel_independent: bool = True,
        channel_aggregation: str = "mean",
        rng=None,
    ):
        super().__init__()
        check_positive("hidden_channels", hidden_channels)
        check_positive("repr_dim", repr_dim)
        check_positive("depth", depth)
        if channel_aggregation not in ("mean", "concat"):
            raise ValueError(
                f"channel_aggregation must be 'mean' or 'concat', got {channel_aggregation!r}"
            )
        rng = new_rng(rng)
        self.channel_independent = channel_independent
        self.channel_aggregation = channel_aggregation
        self.repr_dim = repr_dim
        effective_in = 1 if channel_independent else in_channels
        self.input_conv = nn.Conv1d(effective_in, hidden_channels, kernel_size, padding=kernel_size // 2, rng=rng)
        blocks = [
            DilatedConvBlock(hidden_channels, kernel_size, dilation=2**i, rng=rng) for i in range(depth)
        ]
        self.blocks = nn.Sequential(*blocks)
        self.head = nn.Linear(hidden_channels, repr_dim, rng=rng)
        #: fused conv+relu input node (see :class:`DilatedConvBlock`)
        self.fused = True

    def output_dim(self, n_variables: int = 1) -> int:
        """Dimension of the representation produced for ``n_variables`` inputs."""
        if self.channel_independent and self.channel_aggregation == "concat":
            return self.repr_dim * int(n_variables)
        return self.repr_dim

    def _encode_channels(self, x: Tensor) -> Tensor:
        """Run the convolutional trunk on ``(N, C, T)`` and pool over time."""
        if self.fused:
            hidden = self.input_conv(x, relu=True)
        else:
            hidden = self.input_conv(x).relu()
        hidden = self.blocks(hidden)
        pooled = F.adaptive_avg_pool1d(hidden, 1).squeeze(2)  # (N, hidden)
        return self.head(pooled)

    def forward(self, x: Tensor | np.ndarray) -> Tensor:
        """Encode a batch ``(B, M, T)``.

        Returns ``(B, repr_dim)`` representations, or ``(B, M * repr_dim)``
        when the encoder is channel independent with ``"concat"`` aggregation.
        """
        if not isinstance(x, Tensor):
            x = Tensor(x)
        if x.ndim == 2:
            x = x.unsqueeze(1)
        if x.ndim != 3:
            raise ValueError(f"TSEncoder expects (B, M, T) input, got shape {x.shape}")
        batch, n_variables, length = x.shape
        if self.channel_independent:
            flat = x.reshape(batch * n_variables, 1, length)
            encoded = self._encode_channels(flat)  # (B*M, D)
            encoded = encoded.reshape(batch, n_variables, self.repr_dim)
            if self.channel_aggregation == "concat":
                return encoded.reshape(batch, n_variables * self.repr_dim)
            return encoded.mean(axis=1)
        return self._encode_channels(x)
