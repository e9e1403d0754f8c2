"""Layer library for the NumPy substrate.

The layers mirror a compact subset of ``torch.nn``: dense and convolutional
layers, batch/layer normalisation, dropout, activations, pooling and the
``Sequential`` container.  Everything consumes and produces
:class:`repro.nn.tensor.Tensor` objects so the contrastive losses can
backpropagate end to end.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor, get_default_dtype, is_grad_enabled
from repro.utils.seeding import new_rng


class Linear(Module):
    """Affine layer ``y = x W^T + b`` over the last dimension.

    Under ``no_grad()`` a 2-D input is computed row by row (gemv): a
    full-batch gemm picks its kernel — and therefore its accumulation order —
    from the row count, so a sample's output would depend on how many
    neighbours shared its batch.  Row-wise compute makes every sample's
    result independent of batch composition, which the serving micro-batcher
    (:mod:`repro.serving`) relies on for responses bit-identical to a direct
    call under any coalescing; it differs from the gemm by <= 1 ulp.
    Recorded (training) forwards keep the full-batch gemm.
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True, rng=None):
        super().__init__()
        rng = new_rng(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features), rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim == 2 and not is_grad_enabled():
            weight_t = self.weight.data.T
            rows = np.empty((x.shape[0], weight_t.shape[1]), dtype=np.result_type(x.data, weight_t))
            for index in range(x.shape[0]):
                np.matmul(x.data[index], weight_t, out=rows[index])
            if self.bias is not None:
                rows += self.bias.data
            return Tensor(rows)
        out = x @ self.weight.transpose()
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features})"


class Conv1d(Module):
    """1-D convolution layer with optional dilation (used by the TS encoder)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        *,
        stride: int = 1,
        padding: int = 0,
        dilation: int = 1,
        bias: bool = True,
        rng=None,
    ):
        super().__init__()
        rng = new_rng(rng)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.dilation = dilation
        self.weight = Parameter(init.kaiming_uniform((out_channels, in_channels, kernel_size), rng))
        self.bias = Parameter(init.zeros((out_channels,))) if bias else None

    def forward(self, x: Tensor, relu: bool = False) -> Tensor:
        return F.conv1d(
            x,
            self.weight,
            self.bias,
            stride=self.stride,
            padding=self.padding,
            dilation=self.dilation,
            relu=relu,
        )

    def __repr__(self) -> str:
        return (
            f"Conv1d({self.in_channels}, {self.out_channels}, k={self.kernel_size}, "
            f"d={self.dilation})"
        )


class Conv2d(Module):
    """2-D convolution layer (used by the image encoder)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        *,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng=None,
    ):
        super().__init__()
        rng = new_rng(rng)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(
            init.kaiming_uniform((out_channels, in_channels, kernel_size, kernel_size), rng)
        )
        self.bias = Parameter(init.zeros((out_channels,))) if bias else None

    def forward(self, x: Tensor, relu: bool = False) -> Tensor:
        return F.conv2d(
            x, self.weight, self.bias, stride=self.stride, padding=self.padding, relu=relu
        )


class BatchNorm1d(Module):
    """Batch normalisation over ``(B, C)`` or ``(B, C, T)`` tensors.

    Training-mode normalisation runs through the fused
    :func:`repro.nn.functional.batch_norm_train` node (bit-identical to the
    decomposed graph); set ``fused = False`` to fall back to the closure
    reference, which the precision tests use as the comparison baseline.
    """

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.fused = True
        self.weight = Parameter(init.ones((num_features,)))
        self.bias = Parameter(init.zeros((num_features,)))
        self.running_mean = np.zeros(num_features, dtype=get_default_dtype())
        self.running_var = np.ones(num_features, dtype=get_default_dtype())

    def _buffers(self):
        return {"running_mean": self.running_mean, "running_var": self.running_var}

    def _update_running(self, mean_data: np.ndarray, var_data: np.ndarray) -> None:
        self.running_mean = (
            (1 - self.momentum) * self.running_mean + self.momentum * mean_data.reshape(-1)
        )
        self.running_var = (
            (1 - self.momentum) * self.running_var + self.momentum * var_data.reshape(-1)
        )

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim == 2:
            axes, shape = (0,), (1, self.num_features)
        elif x.ndim == 3:
            axes, shape = (0, 2), (1, self.num_features, 1)
        else:
            raise ValueError(f"BatchNorm1d expects 2-D or 3-D input, got shape {x.shape}")
        if self.training:
            if self.fused:
                out, mean_data, var_data = F.batch_norm_train(
                    x, self.weight, self.bias, axes=axes, shape=shape, eps=self.eps
                )
                self._update_running(mean_data, var_data)
                return out
            mean = x.mean(axis=axes, keepdims=True)
            var = x.var(axis=axes, keepdims=True)
            self._update_running(mean.data, var.data)
        else:
            mean = Tensor(self.running_mean.reshape(shape))
            var = Tensor(self.running_var.reshape(shape))
        normalised = (x - mean) / ((var + self.eps) ** 0.5)
        return normalised * self.weight.reshape(shape) + self.bias.reshape(shape)


class BatchNorm2d(Module):
    """Batch normalisation over ``(B, C, H, W)`` tensors.

    Uses the same fused training node (and ``fused`` escape hatch) as
    :class:`BatchNorm1d`.
    """

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.fused = True
        self.weight = Parameter(init.ones((num_features,)))
        self.bias = Parameter(init.zeros((num_features,)))
        self.running_mean = np.zeros(num_features, dtype=get_default_dtype())
        self.running_var = np.ones(num_features, dtype=get_default_dtype())

    def _buffers(self):
        return {"running_mean": self.running_mean, "running_var": self.running_var}

    def _update_running(self, mean_data: np.ndarray, var_data: np.ndarray) -> None:
        self.running_mean = (
            (1 - self.momentum) * self.running_mean + self.momentum * mean_data.reshape(-1)
        )
        self.running_var = (
            (1 - self.momentum) * self.running_var + self.momentum * var_data.reshape(-1)
        )

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ValueError(f"BatchNorm2d expects 4-D input, got shape {x.shape}")
        shape = (1, self.num_features, 1, 1)
        if self.training:
            if self.fused:
                out, mean_data, var_data = F.batch_norm_train(
                    x, self.weight, self.bias, axes=(0, 2, 3), shape=shape, eps=self.eps
                )
                self._update_running(mean_data, var_data)
                return out
            mean = x.mean(axis=(0, 2, 3), keepdims=True)
            var = x.var(axis=(0, 2, 3), keepdims=True)
            self._update_running(mean.data, var.data)
        else:
            mean = Tensor(self.running_mean.reshape(shape))
            var = Tensor(self.running_var.reshape(shape))
        normalised = (x - mean) / ((var + self.eps) ** 0.5)
        return normalised * self.weight.reshape(shape) + self.bias.reshape(shape)


class LayerNorm(Module):
    """Layer normalisation over the last dimension."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5):
        super().__init__()
        self.eps = eps
        self.weight = Parameter(init.ones((normalized_shape,)))
        self.bias = Parameter(init.zeros((normalized_shape,)))

    def forward(self, x: Tensor) -> Tensor:
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        normalised = (x - mean) / ((var + self.eps) ** 0.5)
        return normalised * self.weight + self.bias


class Dropout(Module):
    """Inverted dropout."""

    def __init__(self, p: float = 0.1, rng=None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = new_rng(rng)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self.training, self._rng)


class ReLU(Module):
    """Rectified linear unit."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class GELU(Module):
    """Gaussian error linear unit."""

    def forward(self, x: Tensor) -> Tensor:
        return x.gelu()


class Tanh(Module):
    """Hyperbolic tangent activation."""

    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Sigmoid(Module):
    """Logistic activation."""

    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class Identity(Module):
    """No-op module, useful as a configurable placeholder."""

    def forward(self, x: Tensor) -> Tensor:
        return x


class Flatten(Module):
    """Flatten all dimensions after the batch dimension."""

    def forward(self, x: Tensor) -> Tensor:
        return x.flatten(start_dim=1)


class MaxPool2d(Module):
    """Max pooling over square windows."""

    def __init__(self, kernel_size: int, stride: int | None = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size, self.stride)


class AdaptiveAvgPool1d(Module):
    """Adaptive average pooling for ``(B, C, T)`` tensors."""

    def __init__(self, output_size: int = 1):
        super().__init__()
        self.output_size = output_size

    def forward(self, x: Tensor) -> Tensor:
        return F.adaptive_avg_pool1d(x, self.output_size)


class AdaptiveAvgPool2d(Module):
    """Adaptive average pooling for ``(B, C, H, W)`` tensors."""

    def __init__(self, output_size: int = 1):
        super().__init__()
        self.output_size = output_size

    def forward(self, x: Tensor) -> Tensor:
        return F.adaptive_avg_pool2d(x, self.output_size)


class Sequential(Module):
    """Run child modules in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self._order: list[str] = []
        for index, module in enumerate(modules):
            name = str(index)
            self.register_module(name, module)
            self._order.append(name)

    def forward(self, x: Tensor) -> Tensor:
        for name in self._order:
            x = self._modules[name](x)
        return x

    def __iter__(self):
        return (self._modules[name] for name in self._order)

    def __len__(self) -> int:
        return len(self._order)


class MLP(Module):
    """Multi-layer perceptron with configurable hidden sizes.

    Used both as the non-linear projection heads of the contrastive objectives
    and as the downstream task classifier.
    """

    def __init__(
        self,
        in_features: int,
        hidden_features: Sequence[int],
        out_features: int,
        *,
        activation: str = "relu",
        dropout: float = 0.0,
        rng=None,
    ):
        super().__init__()
        rng = new_rng(rng)
        activations = {"relu": ReLU, "gelu": GELU, "tanh": Tanh}
        if activation not in activations:
            raise ValueError(f"unknown activation {activation!r}")
        layers: list[Module] = []
        previous = in_features
        for hidden in hidden_features:
            layers.append(Linear(previous, hidden, rng=rng))
            layers.append(activations[activation]())
            if dropout > 0:
                layers.append(Dropout(dropout, rng=rng))
            previous = hidden
        layers.append(Linear(previous, out_features, rng=rng))
        self.network = Sequential(*layers)
        self.in_features = in_features
        self.out_features = out_features

    def forward(self, x: Tensor) -> Tensor:
        return self.network(x)
