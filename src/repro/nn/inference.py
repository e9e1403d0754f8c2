"""Convolution forward kernels, load-time BatchNorm folding and the serving loop.

Inference is ``Module.forward`` under ``no_grad()``: the estimators'
``encode`` / ``predict`` surfaces stream micro-batches through
:func:`batched_infer`, which runs :meth:`repro.nn.module.Module.infer` on
each with the estimator's :class:`~repro.nn.arena.StepArena` as the buffer
pool.  This module holds what that path shares with training:

* :func:`conv1d_forward` / :func:`conv2d_forward` — the convolution forward
  arithmetic on raw arrays: conv1d pads channels-last and runs one GEMM per
  kernel tap; conv2d pads, builds the im2col patch matrix and runs one
  GEMM; both then add the bias and apply the fused ReLU.
  :func:`repro.nn.functional.conv1d` / ``conv2d`` add the input checks and
  the backward closure on top; under ``no_grad()`` the padded input (conv1d)
  or patch matrix (conv2d) and the mask go to arena scratch because no
  backward pass reads them.
* :func:`fold_conv_bn` / :func:`fold_batchnorms` — eval-time BatchNorm
  folding: a BN layer in eval mode is an affine transform per channel, which
  folds into the preceding convolution's weights
  (``w' = w * gamma/sqrt(var+eps)``).  Applied once when a bundle loads for
  serving (``load_estimator(path, eval_mode=True)``).
* :func:`batched_infer` — the micro-batch loop.
"""

from __future__ import annotations

import numpy as np

from repro.nn.arena import active_arena
from repro.nn.tensor import default_dtype

#: serving micro-batch size the estimator configs and ``FineTuner`` default
#: to (re-exported as ``repro.api.estimator.DEFAULT_SERVING_BATCH_SIZE``).
#: Inference throughput is flat in the micro-batch size once the arena is
#: warm; 256 quarters the per-micro-batch dispatch overhead of the old 64
#: and hands threaded BLAS wider matmuls.
DEFAULT_SERVING_BATCH_SIZE = 256


# --------------------------------------------------------------------------- #
# im2col (2-D)
# --------------------------------------------------------------------------- #
def _im2col_2d(
    x: np.ndarray,
    kernel: tuple[int, int],
    stride: tuple[int, int],
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Turn ``(B, C, H, W)`` into ``(B, out_h, out_w, C*kh*kw)`` patches.

    ``out`` optionally receives the patch matrix (an arena buffer of that
    shape); the copy into it materialises the identical element order the
    ``ascontiguousarray`` path produces.
    """
    kh, kw = kernel
    sh, sw = stride
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::sh, ::sw]  # (B, C, out_h, out_w, kh, kw)
    batch, channels, out_h, out_w = windows.shape[:4]
    if out is not None:
        np.copyto(
            out.reshape(batch, out_h, out_w, channels, kh, kw),
            windows.transpose(0, 2, 3, 1, 4, 5),
        )
        return out
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(batch, out_h, out_w, channels * kh * kw)
    return np.ascontiguousarray(cols)


# --------------------------------------------------------------------------- #
# Convolution forward kernels
# --------------------------------------------------------------------------- #
def _pad(x: np.ndarray, widths: tuple[int, ...], tag: str, arena) -> np.ndarray:
    """Zero-pad the spatial axes of ``(B, C, *spatial)`` by ``widths`` per side."""
    if not any(widths):
        return x
    if arena is None:
        return np.pad(x, ((0, 0), (0, 0), *((w, w) for w in widths)))
    spatial = x.shape[2:]
    padded = arena.scratch(
        f"{tag}.pad", (*x.shape[:2], *(n + 2 * w for n, w in zip(spatial, widths))), x.dtype
    )
    padded[...] = 0
    padded[(slice(None), slice(None), *(slice(w, w + n) for n, w in zip(spatial, widths)))] = x
    return padded


def _activate(out: np.ndarray, bias, relu: bool, pool, tag: str):
    """Add the bias and apply the fused ReLU to channels-last ``out``; returns
    ``(out, mask)``.

    ``out`` comes back as the channels-first view of the channels-last
    array.  The ReLU is ``out * (out > 0)`` (not ``np.maximum``) so -0.0
    keeps its sign bit exactly like the decomposed ``relu`` node; the mask
    stays in the channels-last layout, which the elementwise product does
    not notice.
    """
    if bias is not None:
        if bias.dtype == out.dtype:
            out += bias
        else:
            out = out + bias
    mask = None
    if relu:
        if pool is not None:
            mask = np.greater(out, 0, out=pool(f"{tag}.mask", out.shape, np.bool_))
        else:
            mask = out > 0
        np.multiply(out, mask, out=out)
    return out.transpose(0, out.ndim - 1, *range(1, out.ndim - 1)), mask


def _project(cols: np.ndarray, weight: np.ndarray, bias, relu: bool, arena, pool, tag: str):
    """``cols @ W^T + b`` with the fused ReLU; returns ``(out, mask)`` as
    :func:`_activate` does."""
    out_channels = weight.shape[0]
    w_flat = weight.reshape(out_channels, -1)  # (C_out, C_in*taps)
    if arena is not None and cols.dtype == w_flat.dtype:
        shape = (*cols.shape[:-1], out_channels)
        out = np.matmul(cols, w_flat.T, out=arena.buffer(f"{tag}.out", shape, cols.dtype))
    else:
        out = cols @ w_flat.T
    return _activate(out, bias, relu, pool, tag)


def conv1d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None = None,
    *,
    stride: int = 1,
    padding: int = 0,
    dilation: int = 1,
    relu: bool = False,
    requires_grad: bool = False,
):
    """1-D convolution of ``(B, C_in, T)`` by ``(C_out, C_in, K)`` on raw arrays.

    One GEMM per kernel tap, no patch matrix (the kn2row formulation): the
    input is zero-padded into a channels-last ``(B, T_pad, C_in)`` buffer,
    and tap ``k`` multiplies the strided rows ``k·d, k·d + s, …`` of every
    series by ``W[:, :, k]^T``, accumulating into the ``(B, T_out, C_out)``
    output.  Each GEMM runs per series with ``T_out`` rows whatever the batch
    size, so a row's result never depends on the rows batched with it.

    Returns ``(out, x_padded, mask)``: the ``(B, C_out, T_out)`` output (a
    transposed view of the channels-last array), the padded channels-last
    input and the ReLU mask (``None`` without ``relu``).  With an active
    :class:`~repro.nn.arena.StepArena` nothing is allocated in steady state:
    the output takes a step-lived buffer, the tap products take scratch, and
    the padded input and mask take step-lived buffers when ``requires_grad``
    (a backward pass reads them) or scratch otherwise.
    """
    arena = active_arena()
    pool = None if arena is None else arena.buffer if requires_grad else arena.scratch
    batch, in_channels, length = x.shape
    out_channels, _, kernel = weight.shape
    padded_length = length + 2 * padding
    out_t = (padded_length - (kernel - 1) * dilation - 1) // stride + 1
    # a trunk conv's input is the channels-first view of the previous conv's
    # channels-last output, so this fill is a plain copy
    shape = (batch, padded_length, in_channels)
    x_padded = np.empty(shape, x.dtype) if pool is None else pool("conv1d.pad", shape, x.dtype)
    x_padded[:, :padding] = 0
    x_padded[:, padding + length :] = 0
    x_padded[:, padding : padding + length] = x.transpose(0, 2, 1)
    taps = np.ascontiguousarray(weight.transpose(2, 1, 0))  # tap k: W[:, :, k]^T
    dtype = np.result_type(x_padded, taps)
    shape = (batch, out_t, out_channels)
    out = np.empty(shape, dtype) if arena is None else arena.buffer("conv1d.out", shape, dtype)
    product = None if arena is None else arena.scratch("conv1d.tap", shape, dtype)
    end = (out_t - 1) * stride + 1
    np.matmul(x_padded[:, :end:stride], taps[0], out=out)
    for k in range(1, kernel):
        rows = x_padded[:, k * dilation : k * dilation + end : stride]  # (B, T_out, C_in)
        out += np.matmul(rows, taps[k], out=product)
    out, mask = _activate(out, bias, relu, pool, "conv1d")
    return out, x_padded, mask


def conv2d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None = None,
    *,
    stride: int | tuple[int, int] = 1,
    padding: int | tuple[int, int] = 0,
    relu: bool = False,
    requires_grad: bool = False,
):
    """2-D convolution of ``(B, C_in, H, W)`` by ``(C_out, C_in, kh, kw)``.

    Returns ``(out, cols, mask)`` with ``out`` a ``(B, C_out, H_out, W_out)``
    view of a ``(B, H_out, W_out, C_out)`` array and ``cols`` the
    ``(B, H_out, W_out, C_in*kh*kw)`` patch matrix.  Pooling as in
    :func:`conv1d_forward`, except that the padded input always takes scratch
    and the patch matrix takes the padded input's place.
    """
    stride = (stride, stride) if isinstance(stride, int) else tuple(stride)
    padding = (padding, padding) if isinstance(padding, int) else tuple(padding)
    arena = active_arena()
    pool = None if arena is None else arena.buffer if requires_grad else arena.scratch
    x_padded = _pad(x, padding, "conv2d", arena)
    batch, channels, height, width = x_padded.shape
    kh, kw = weight.shape[2:]
    out_h = (height - kh) // stride[0] + 1
    out_w = (width - kw) // stride[1] + 1
    out = None if pool is None else pool("conv2d.cols", (batch, out_h, out_w, channels * kh * kw), x.dtype)
    cols = _im2col_2d(x_padded, (kh, kw), stride, out=out)  # (B, oh, ow, C*kh*kw)
    out, mask = _project(cols, weight, bias, relu, arena, pool, "conv2d")
    return out, cols, mask


# --------------------------------------------------------------------------- #
# Load-time BatchNorm folding
# --------------------------------------------------------------------------- #
def fold_conv_bn(conv, bn):
    """Fold an eval-mode batch norm into the preceding convolution.

    Returns ``(weight, bias)`` arrays such that ``conv(x; weight, bias)``
    equals ``bn(conv(x))`` with the BN in eval mode (running statistics).
    """
    scale = bn.weight.data / (bn.running_var + bn.eps) ** 0.5
    shape = (-1,) + (1,) * (conv.weight.data.ndim - 1)
    weight = conv.weight.data * scale.reshape(shape)
    bias = conv.bias.data if conv.bias is not None else 0.0
    bias = (bias - bn.running_mean) * scale + bn.bias.data
    dtype = conv.weight.data.dtype
    return weight.astype(dtype, copy=False), bias.astype(dtype, copy=False)


def fold_batchnorms(module) -> int:
    """Bake Conv→BN folding into ``module`` in place; returns pairs folded.

    Walks every :class:`~repro.nn.layers.Sequential` container reachable from
    ``module`` and, for each ``Conv1d → BatchNorm1d`` / ``Conv2d →
    BatchNorm2d`` pair, overwrites the convolution's weights with the folded
    values of :func:`fold_conv_bn` (creating a bias parameter when the
    convolution had none) and replaces the batch norm with
    :class:`~repro.nn.layers.Identity`.  The folded module computes its eval
    forward with one kernel per pair instead of two.

    Eval-time only: the folded module no longer tracks batch statistics and
    its ``state_dict`` has the folded layout (no BN entries), so it must not
    be trained further or re-saved as a bundle — use it for serving
    (``load_estimator(path, eval_mode=True)``) and keep the original bundle
    file as the source of truth.
    """
    # imported here: repro.nn.functional imports this module, and the layer
    # library imports functional
    from repro.nn import layers as L
    from repro.nn.module import Parameter

    folded = 0
    for child in module.modules():
        if not isinstance(child, L.Sequential):
            continue
        names = list(child._order)
        for index, name in enumerate(names[:-1]):
            layer = child._modules[name]
            successor = child._modules[names[index + 1]]
            pair = (
                isinstance(layer, L.Conv1d) and isinstance(successor, L.BatchNorm1d)
            ) or (isinstance(layer, L.Conv2d) and isinstance(successor, L.BatchNorm2d))
            if not pair:
                continue
            weight, bias = fold_conv_bn(layer, successor)
            layer.weight.data = weight
            if layer.bias is None:
                # pin the new parameter to the conv's dtype, not the ambient
                # default (a float32 model must stay float32 after folding)
                with default_dtype(weight.dtype):
                    layer.bias = Parameter(bias)
            else:
                layer.bias.data = bias
            child.register_module(names[index + 1], L.Identity())
            folded += 1
    return folded


# --------------------------------------------------------------------------- #
# The serving loop
# --------------------------------------------------------------------------- #
def batched_infer(encoder, X: np.ndarray, *, batch_size: int, workspace=None, head=None) -> np.ndarray:
    """Stream micro-batches of ``X`` through ``encoder`` and the optional ``head``.

    The one loop behind every ``encode`` / ``predict_logits`` surface: each
    micro-batch runs :meth:`~repro.nn.module.Module.infer` on the encoder and
    then on ``head`` (e.g. a classifier) — ``forward`` under ``no_grad()`` in
    the parameters' dtype, eval mode for the call, every module's own
    train/eval flag restored after it — with ``workspace`` (a
    :class:`~repro.nn.arena.StepArena`, or ``None`` to allocate) advanced
    once per micro-batch.  Each micro-batch's result is copied into one
    fresh output array before the arena is reused, so the returned array
    never aliases the arena.
    """
    result = None
    # an empty X still runs one (empty) micro-batch, for the output shape
    for start in range(0, max(X.shape[0], 1), batch_size):
        if workspace is not None:
            workspace.advance()
        out = encoder.infer(X[start : start + batch_size], workspace=workspace)
        if head is not None:
            out = head.infer(out, workspace=workspace)
        if result is None:
            result = np.empty((X.shape[0], *out.shape[1:]), dtype=out.dtype)
        result[start : start + out.shape[0]] = out
    return result
