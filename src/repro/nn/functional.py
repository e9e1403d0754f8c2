"""Functional neural-network primitives built on :class:`repro.nn.tensor.Tensor`.

Both convolutions reduce their forward and backward passes to dense matrix
multiplications, which keeps the pure-NumPy substrate fast enough for the
experiments in this reproduction: ``conv1d`` runs one GEMM per kernel tap on
shifted rows of the padded input (no patch matrix, no scatter), ``conv2d``
runs im2col/col2im.  Their forward arithmetic lives in
:mod:`repro.nn.inference` (``conv1d_forward`` / ``conv2d_forward``); the
nodes here add the input checks and the backward closures.
"""

from __future__ import annotations

import numpy as np

from repro.nn import inference as NI
from repro.nn.arena import active_arena, result_template
from repro.nn.tensor import Tensor, _unbroadcast, get_default_dtype, is_grad_enabled


# --------------------------------------------------------------------------- #
# Softmax family
# --------------------------------------------------------------------------- #
def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def cross_entropy(logits: Tensor, targets: np.ndarray, *, reduction: str = "mean") -> Tensor:
    """Cross-entropy between ``logits`` of shape ``(B, C)`` and integer ``targets``.

    Parameters
    ----------
    logits:
        Unnormalised class scores.
    targets:
        Integer class indices of shape ``(B,)``.
    reduction:
        Either ``"mean"`` or ``"sum"``.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2:
        raise ValueError(f"logits must be 2-D (batch, classes), got shape {logits.shape}")
    if targets.ndim != 1 or targets.shape[0] != logits.shape[0]:
        raise ValueError("targets must be a 1-D array matching the logits batch size")
    log_probs = log_softmax(logits, axis=-1)
    batch = np.arange(logits.shape[0])
    picked = log_probs[batch, targets]
    loss = -picked.sum()
    if reduction == "mean":
        loss = loss * (1.0 / logits.shape[0])
    elif reduction != "sum":
        raise ValueError(f"unknown reduction {reduction!r}")
    return loss


def nll_accuracy(logits: Tensor | np.ndarray, targets: np.ndarray) -> float:
    """Classification accuracy of argmax predictions."""
    scores = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    predictions = scores.argmax(axis=-1)
    targets = np.asarray(targets)
    return float((predictions == targets).mean())


# --------------------------------------------------------------------------- #
# Normalisation / similarity
# --------------------------------------------------------------------------- #
def l2_normalize(x: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Project ``x`` onto the unit hypersphere along ``axis``."""
    norm = (x * x).sum(axis=axis, keepdims=True).clamp_min(eps) ** 0.5
    return x / norm


def cosine_similarity_matrix(a: Tensor, b: Tensor) -> Tensor:
    """Pairwise cosine similarity between rows of ``a`` (n, d) and ``b`` (m, d)."""
    a_norm = l2_normalize(a, axis=-1)
    b_norm = l2_normalize(b, axis=-1)
    return a_norm @ b_norm.transpose()


def mse_loss(prediction: Tensor, target: Tensor | np.ndarray) -> Tensor:
    """Mean squared error."""
    if not isinstance(target, Tensor):
        target = Tensor(target)
    diff = prediction - target
    return (diff * diff).mean()


def conv1d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    *,
    stride: int = 1,
    padding: int = 0,
    dilation: int = 1,
    relu: bool = False,
) -> Tensor:
    """1-D convolution.

    Parameters
    ----------
    x:
        Input of shape ``(B, C_in, T)``.
    weight:
        Kernel of shape ``(C_out, C_in, K)``.
    bias:
        Optional bias of shape ``(C_out,)``.
    relu:
        Fuse a ReLU into this node.  Bit-identical to ``conv1d(...).relu()``:
        the forward applies the same ``out * (out > 0)`` product and the
        backward masks the incoming gradient exactly as the decomposed relu
        node would before the convolution VJPs run.

    The forward is :func:`repro.nn.inference.conv1d_forward`, one GEMM per
    kernel tap on a channels-last padded copy of the input.  The backward
    works on the same rows: the (masked) output gradient is written at rows
    ``s·t`` of a zeroed ``(B, T_pad, C_out)`` grid, and with the grid ``G``
    and the padded input ``X`` viewed as flat ``(B·T_pad, ·)`` matrices and
    ``N = B·T_pad − (K−1)·d``, tap ``k`` contributes the weight gradient
    ``G[:N]^T @ X[k·d : k·d+N]`` and the input gradient
    ``gX[k·d : k·d+N] += G[:N] @ W[:, :, k]`` — K GEMMs each, no patch
    matrix and no scatter.  Rows that straddle two series only meet zero
    grid rows.
    With an active :class:`~repro.nn.arena.StepArena` every intermediate
    comes from pooled buffers; when no gradient is recorded (``no_grad()``,
    or no operand requires one) the node keeps nothing for a backward pass.
    """
    if x.ndim != 3:
        raise ValueError(f"conv1d expects (B, C, T) input, got shape {x.shape}")
    out_channels, in_channels, kernel = weight.shape
    if x.shape[1] != in_channels:
        raise ValueError(
            f"input has {x.shape[1]} channels but the kernel expects {in_channels}"
        )
    parents = (x, weight) if bias is None else (x, weight, bias)
    requires_grad = is_grad_enabled() and any(p.requires_grad for p in parents)
    out, x_padded, mask = NI.conv1d_forward(
        x.data,
        weight.data,
        None if bias is None else bias.data,
        stride=stride,
        padding=padding,
        dilation=dilation,
        relu=relu,
        requires_grad=requires_grad,
    )
    if not requires_grad:
        return Tensor(out)
    batch, padded_length = x_padded.shape[:2]
    length = x.shape[2]
    end = (out.shape[2] - 1) * stride + 1
    # flat rows of the padded input; tap k reads rows k·d .. k·d + n
    x_flat = x_padded.reshape(batch * padded_length, in_channels)
    n = batch * padded_length - (kernel - 1) * dilation

    def backward(grad):
        pool = active_arena()
        shape = (batch, padded_length, out_channels)
        if pool is None:
            grid = np.zeros(shape, out.dtype)
        else:
            grid = pool.scratch("conv1d.grid", shape, out.dtype)
            grid[...] = 0
        rows = grid[:, :end:stride]  # (B, T_out, C_out), the mask's layout
        rows.transpose(0, 2, 1)[...] = grad
        if mask is not None:
            np.multiply(rows, mask, out=rows)
        g_flat = grid.reshape(-1, out_channels)
        g = g_flat[:n]
        if weight.requires_grad:
            shape = (kernel, out_channels, in_channels)
            if pool is None:
                grad_taps = np.empty(shape, out.dtype)
            else:
                grad_taps = pool.scratch("conv1d.gw", shape, out.dtype)
            for k in range(kernel):
                np.matmul(g.T, x_flat[k * dilation : k * dilation + n], out=grad_taps[k])
            weight._accumulate(np.ascontiguousarray(grad_taps.transpose(1, 2, 0)))
        if bias is not None and bias.requires_grad:
            # reduced from the grid, whose layout is the same whether or not
            # the ReLU is fused, so both graphs sum in one order; einsum adds
            # row by row like sum(axis=0), without its per-row loop overhead
            bias._accumulate(np.einsum("ij->j", g_flat))
        if x.requires_grad:
            taps = np.ascontiguousarray(weight.data.transpose(2, 0, 1))  # tap k: W[:, :, k]
            shape = (batch * padded_length, in_channels)
            if pool is None:
                grad_x, product = np.empty(shape, out.dtype), None
            else:
                grad_x = pool.scratch("conv1d.gx", shape, out.dtype)
                product = pool.scratch("conv1d.gtap", (n, in_channels), out.dtype)
            np.matmul(g, taps[0], out=grad_x[:n])
            grad_x[n:] = 0
            for k in range(1, kernel):
                grad_x[k * dilation : k * dilation + n] += np.matmul(g, taps[k], out=product)
            grad_x = grad_x.reshape(batch, padded_length, in_channels)
            x._accumulate(grad_x[:, padding : padding + length].transpose(0, 2, 1))

    return Tensor._make(out, parents, backward)


# --------------------------------------------------------------------------- #
# col2im helpers (2-D)
# --------------------------------------------------------------------------- #
def _col2im_2d_reference(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel: tuple[int, int],
    stride: tuple[int, int],
) -> np.ndarray:
    """Bit-exact scalar reference for :func:`_col2im_2d` (loop over taps)."""
    batch, channels, height, width = x_shape
    kh, kw = kernel
    sh, sw = stride
    out_h = (height - kh) // sh + 1
    out_w = (width - kw) // sw + 1
    grad_x = np.zeros(x_shape, dtype=cols.dtype)
    cols = cols.reshape(batch, out_h, out_w, channels, kh, kw)
    for i in range(kh):
        for j in range(kw):
            rows = np.arange(out_h) * sh + i
            cols_idx = np.arange(out_w) * sw + j
            grad_x[:, :, rows[:, None], cols_idx[None, :]] += cols[:, :, :, :, i, j].transpose(
                0, 3, 1, 2
            )
    return grad_x


#: memoized flat scatter indices for the vectorized col2im kernel — shapes
#: repeat every batch, so the index arithmetic is paid once per shape
_COL2IM_INDEX_CACHE: dict[tuple, np.ndarray] = {}
_COL2IM_INDEX_CACHE_MAX = 32


def _cached_scatter_index(key: tuple, build) -> np.ndarray:
    index = _COL2IM_INDEX_CACHE.get(key)
    if index is None:
        while len(_COL2IM_INDEX_CACHE) >= _COL2IM_INDEX_CACHE_MAX:
            # evict the oldest entry only (insertion order), so a working set
            # spanning many conv shapes never drops its hot entries wholesale
            _COL2IM_INDEX_CACHE.pop(next(iter(_COL2IM_INDEX_CACHE)))
        index = _COL2IM_INDEX_CACHE[key] = build()
    return index


def _col2im_2d(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel: tuple[int, int],
    stride: tuple[int, int],
) -> np.ndarray:
    """Scatter patch gradients back onto the padded input image.

    float64: single ``np.bincount`` scatter over all ``kh*kw`` taps
    (tap-major flatten order, bit-identical to
    :func:`_col2im_2d_reference`).  float32: native per-tap strided adds in
    the reference's ``(i, j)`` tap order — bit-identical to the reference in
    float32 and free of the full-size float64 accumulate + cast.
    """
    batch, channels, height, width = x_shape
    kh, kw = kernel
    sh, sw = stride
    out_h = (height - kh) // sh + 1
    out_w = (width - kw) // sw + 1

    if cols.dtype != np.float64:
        arena = active_arena()
        if arena is not None:
            grad_x = arena.scratch("col2im2d", x_shape, cols.dtype)
            grad_x[...] = 0
        else:
            grad_x = np.zeros(x_shape, dtype=cols.dtype)
        taps = cols.reshape(batch, out_h, out_w, channels, kh, kw)
        end_h = (out_h - 1) * sh + 1
        end_w = (out_w - 1) * sw + 1
        for i in range(kh):
            for j in range(kw):
                grad_x[:, :, i : i + end_h : sh, j : j + end_w : sw] += taps[
                    :, :, :, :, i, j
                ].transpose(0, 3, 1, 2)
        return grad_x

    def build() -> np.ndarray:
        positions = (
            (np.arange(kh)[:, None, None, None] + np.arange(out_h)[None, None, :, None] * sh)
            * width
            + np.arange(kw)[None, :, None, None]
            + np.arange(out_w)[None, None, None, :] * sw
        ).reshape(-1)
        rows = np.arange(batch * channels)[:, None] * (height * width)
        return (rows + positions[None, :]).ravel()

    index = _cached_scatter_index(("2d", *x_shape, kh, kw, sh, sw), build)
    taps = cols.reshape(batch, out_h, out_w, channels, kh, kw)
    values = taps.transpose(0, 3, 4, 5, 1, 2).reshape(-1)
    flat = np.bincount(index, weights=values, minlength=batch * channels * height * width)
    return flat.reshape(x_shape).astype(cols.dtype, copy=False)


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    *,
    stride: int | tuple[int, int] = 1,
    padding: int | tuple[int, int] = 0,
    relu: bool = False,
) -> Tensor:
    """2-D convolution over ``(B, C_in, H, W)`` input with ``(C_out, C_in, kh, kw)`` kernels.

    ``relu`` fuses a ReLU into this node and an active
    :class:`~repro.nn.arena.StepArena` pools every intermediate, exactly as
    in :func:`conv1d`; the forward is
    :func:`repro.nn.inference.conv2d_forward`.
    """
    if x.ndim != 4:
        raise ValueError(f"conv2d expects (B, C, H, W) input, got shape {x.shape}")
    stride = (stride, stride) if isinstance(stride, int) else tuple(stride)
    padding = (padding, padding) if isinstance(padding, int) else tuple(padding)
    out_channels, in_channels, kh, kw = weight.shape
    if x.shape[1] != in_channels:
        raise ValueError(
            f"input has {x.shape[1]} channels but the kernel expects {in_channels}"
        )
    parents = (x, weight) if bias is None else (x, weight, bias)
    requires_grad = is_grad_enabled() and any(p.requires_grad for p in parents)
    out, cols, mask = NI.conv2d_forward(
        x.data,
        weight.data,
        None if bias is None else bias.data,
        stride=stride,
        padding=padding,
        relu=relu,
        requires_grad=requires_grad,
    )
    if not requires_grad:
        return Tensor(out)
    ph, pw = padding
    batch, out_h, out_w, patch = cols.shape
    w_flat = weight.data.reshape(out_channels, -1)
    x_padded_shape = (batch, in_channels, x.shape[2] + 2 * ph, x.shape[3] + 2 * pw)

    def backward(grad):
        pool = active_arena()
        if mask is not None:
            mask_t = mask.transpose(0, 3, 1, 2)
            if pool is not None and grad.shape == mask_t.shape:
                grad = np.multiply(
                    grad,
                    mask_t,
                    out=pool.scratch(
                        "conv2d.gmask",
                        grad.shape,
                        grad.dtype,
                        like=result_template(grad.shape, grad, mask_t),
                    ),
                )
            else:
                grad = grad * mask_t
        grad_out = grad.transpose(0, 2, 3, 1)  # (B, oh, ow, C_out)
        if weight.requires_grad:
            rows = grad_out.shape[0] * grad_out.shape[1] * grad_out.shape[2]
            cols_flat = cols.reshape(rows, -1)
            if pool is not None:
                flat_grad = pool.scratch("conv2d.gflat", (rows, out_channels), grad_out.dtype)
                np.copyto(flat_grad.reshape(grad_out.shape), grad_out)
                grad_w = np.matmul(
                    flat_grad.T,
                    cols_flat,
                    out=pool.scratch("conv2d.gw", (out_channels, cols_flat.shape[1]), grad_out.dtype),
                )
            else:
                grad_w = grad_out.reshape(rows, out_channels).T @ cols_flat
            weight._accumulate(grad_w.reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad_out.sum(axis=(0, 1, 2)))
        if x.requires_grad:
            if pool is not None and grad_out.dtype == w_flat.dtype:
                grad_cols = np.matmul(
                    grad_out,
                    w_flat,
                    out=pool.scratch(
                        "conv2d.gcols", (batch, out_h, out_w, patch), grad_out.dtype
                    ),
                )
            else:
                grad_cols = grad_out @ w_flat
            grad_padded = _col2im_2d(grad_cols, x_padded_shape, (kh, kw), stride)
            if ph or pw:
                grad_padded = grad_padded[
                    :, :, ph : grad_padded.shape[2] - ph or None, pw : grad_padded.shape[3] - pw or None
                ]
            x._accumulate(grad_padded)

    return Tensor._make(out, parents, backward)


# --------------------------------------------------------------------------- #
# Batch normalisation (fused training node)
# --------------------------------------------------------------------------- #
def batch_norm_train(
    x: Tensor,
    weight: Tensor,
    bias: Tensor,
    *,
    axes: tuple[int, ...],
    shape: tuple[int, ...],
    eps: float,
) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Fused training-mode batch norm: normalise + affine as one autograd node.

    Bit-identical — outputs *and* accumulated gradients — to the decomposed
    graph the ``BatchNorm*d`` layers used to build::

        mean = x.mean(axes, keepdims=True)
        var = x.var(axes, keepdims=True)
        (x - mean) / ((var + eps) ** 0.5) * w.reshape(shape) + b.reshape(shape)

    The forward replays the same expression sequence (including the
    reciprocal-count and ``eps`` scalars coerced to the ambient default
    dtype, exactly as ``Tensor._coerce`` would).  The backward replays the
    decomposed graph's DFS execution order: ``x`` receives its four
    contributions in the same sequence (normalised branch, its mean
    reduction, the variance square node's doubled product, the variance mean
    reduction), the square node's gradient is formed as ``p + p`` like the
    double accumulation of ``centered * centered``, and every reduction goes
    through the same sequential per-axis sums as ``_unbroadcast``.  With an
    active :class:`~repro.nn.arena.StepArena` the full-size intermediates
    are pooled; only the tiny per-channel statistics allocate.

    Returns ``(out, mean, var)`` with the batch statistics as raw keepdims
    arrays for the layer's running-average update.
    """
    count = 1
    for axis in axes:
        count *= x.shape[axis]
    c_arr = np.asarray(1.0 / count, dtype=get_default_dtype())
    eps_arr = np.asarray(eps, dtype=get_default_dtype())
    xd = x.data
    arena = active_arena()
    mean = xd.sum(axis=axes, keepdims=True) * c_arr
    w_r = weight.data.reshape(shape)
    b_r = bias.data.reshape(shape)
    pooled = (
        arena is not None
        and mean.dtype == xd.dtype
        and w_r.dtype == xd.dtype
        and b_r.dtype == xd.dtype
    )
    if pooled:
        # buffers take the layout the allocate-fresh expressions would: every
        # node here follows ``xd`` (``mean`` / ``std`` / ``w_r`` broadcast and
        # so don't constrain the result layout), and reductions over these
        # arrays must iterate exactly like the reference's
        like = result_template(xd.shape, xd)
        centered = np.subtract(
            xd, mean, out=arena.buffer("bn.centered", xd.shape, xd.dtype, like=like)
        )
        square = np.multiply(
            centered, centered, out=arena.scratch("bn.sq", xd.shape, xd.dtype, like=centered)
        )
    else:
        centered = xd - mean
        square = centered * centered
    var = square.sum(axis=axes, keepdims=True) * c_arr
    a3 = var + eps_arr
    std = a3**0.5
    if pooled:
        normalised = np.divide(
            centered, std, out=arena.buffer("bn.norm", xd.shape, xd.dtype, like=centered)
        )
        out_data = np.multiply(
            normalised, w_r, out=arena.buffer("bn.out", xd.shape, xd.dtype, like=normalised)
        )
        np.add(out_data, b_r, out=out_data)
    else:
        normalised = centered / std
        out_data = normalised * w_r + b_r

    def backward(g):
        pool = active_arena()
        # the pooled backward is layout-faithful only for a C-contiguous
        # incoming gradient: the reference's ``broadcast_to(...).astype``
        # addends are C, so every fresh intermediate below lands in C order
        # exactly when ``g`` starts there (mixed-layout products fall back to
        # C).  A permuted ``g`` takes the allocate-fresh reference branch.
        use_pool = (
            pool is not None
            and g.dtype == xd.dtype
            and mean.dtype == xd.dtype
            and g.flags.c_contiguous
        )
        std2 = std**2
        if x.requires_grad:
            if use_pool:
                gd = np.multiply(g, w_r, out=pool.scratch("bn.gd", xd.shape, g.dtype))
                gx = np.divide(gd, std, out=pool.scratch("bn.gx", xd.shape, g.dtype))
            else:
                gd = g * w_r
                gx = gd / std
            # contribution 2: through the normalised branch's mean node
            gs1 = -_unbroadcast(gx, mean.shape) * c_arr
            if use_pool:
                np.add(gx, gs1, out=gx)
            else:
                gx = gx + np.broadcast_to(gs1, xd.shape).astype(xd.dtype)
            # variance branch: divide node -> pow node -> mean -> square
            if use_pool:
                tmp = np.negative(gd, out=pool.scratch("bn.tmp", xd.shape, g.dtype))
                np.multiply(tmp, centered, out=tmp)
                np.divide(tmp, std2, out=tmp)
            else:
                tmp = -gd * centered / std2
            gp1 = _unbroadcast(tmp, mean.shape)
            ga3 = gp1 * 0.5 * a3 ** (-0.5)
            gs2 = ga3 * c_arr
            # contribution 3: the square node accumulates its product twice
            if use_pool:
                prod = np.multiply(gs2, centered, out=pool.scratch("bn.p", xd.shape, g.dtype))
                np.add(prod, prod, out=prod)
                np.add(gx, prod, out=gx)
                gs1b = -_unbroadcast(prod, mean.shape) * c_arr
                np.add(gx, gs1b, out=gx)
            else:
                spread = np.broadcast_to(gs2, xd.shape).astype(xd.dtype)
                prod = spread * centered
                ga1 = prod + prod
                gx = gx + ga1
                gs1b = -_unbroadcast(ga1, mean.shape) * c_arr
                gx = gx + np.broadcast_to(gs1b, xd.shape).astype(xd.dtype)
            x._accumulate(gx)
        if weight.requires_grad:
            if use_pool:
                tw = np.multiply(g, normalised, out=pool.scratch("bn.tmp", xd.shape, g.dtype))
            else:
                tw = g * normalised
            weight._accumulate(_unbroadcast(tw, mean.shape).reshape(weight.shape))
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(g, mean.shape).reshape(bias.shape))

    out = Tensor._make(out_data, (x, weight, bias), backward)
    return out, mean, var


# --------------------------------------------------------------------------- #
# Pooling
# --------------------------------------------------------------------------- #
def max_pool2d(x: Tensor, kernel_size: int, stride: int | None = None) -> Tensor:
    """Max pooling over square windows of a ``(B, C, H, W)`` tensor."""
    stride = stride or kernel_size
    batch, channels, height, width = x.shape
    out_h = (height - kernel_size) // stride + 1
    out_w = (width - kernel_size) // stride + 1
    windows = np.lib.stride_tricks.sliding_window_view(x.data, (kernel_size, kernel_size), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]  # (B, C, oh, ow, k, k)
    flat = windows.reshape(batch, channels, out_h, out_w, -1)
    argmax = flat.argmax(axis=-1)
    out_data = np.take_along_axis(flat, argmax[..., None], axis=-1).squeeze(-1)

    def backward(grad):
        if not x.requires_grad:
            return
        grad_x = np.zeros_like(x.data)
        k_rows, k_cols = np.unravel_index(argmax, (kernel_size, kernel_size))
        b_idx, c_idx, oh_idx, ow_idx = np.indices(argmax.shape)
        rows = oh_idx * stride + k_rows
        cols = ow_idx * stride + k_cols
        np.add.at(grad_x, (b_idx, c_idx, rows, cols), grad)
        x._accumulate(grad_x)

    return Tensor._make(out_data, (x,), backward)


def _avg_pool1d_data(data: np.ndarray, output_size: int) -> np.ndarray:
    """Adaptive 1-D average pooling on a raw ``(B, C, T)`` array (``output_size > 1``)."""
    batch, channels, length = data.shape
    edges = np.linspace(0, length, output_size + 1).astype(int)
    if length % output_size == 0:
        step = length // output_size
        return data.reshape(batch, channels, output_size, step).sum(axis=3) * (1.0 / step)
    out = np.empty((batch, channels, output_size), dtype=data.dtype)
    for index, (start, stop) in enumerate(zip(edges[:-1], edges[1:])):
        out[:, :, index] = data[:, :, start:stop].sum(axis=2) * (1.0 / (stop - start))
    return out


def _avg_pool2d_data(data: np.ndarray, output_size: int) -> np.ndarray:
    """Adaptive 2-D average pooling on a raw ``(B, C, H, W)`` array (``output_size > 1``)."""
    batch, channels, height, width = data.shape
    h_edges = np.linspace(0, height, output_size + 1).astype(int)
    w_edges = np.linspace(0, width, output_size + 1).astype(int)
    if height % output_size == 0 and width % output_size == 0:
        sh, sw = height // output_size, width // output_size
        # summing the in-bin row axis first, then the in-bin column axis,
        # reproduces the slice path's sum(axis=(2, 3)) accumulation order
        binned = data.reshape(batch, channels, output_size, sh, output_size, sw)
        return binned.sum(axis=3).sum(axis=4) * (1.0 / (sh * sw))
    out = np.empty((batch, channels, output_size, output_size), dtype=data.dtype)
    for i, (h0, h1) in enumerate(zip(h_edges[:-1], h_edges[1:])):
        for j, (w0, w1) in enumerate(zip(w_edges[:-1], w_edges[1:])):
            out[:, :, i, j] = data[:, :, h0:h1, w0:w1].sum(axis=(2, 3)) * (
                1.0 / ((h1 - h0) * (w1 - w0))
            )
    return out


def adaptive_avg_pool1d(x: Tensor, output_size: int = 1) -> Tensor:
    """Average pool a ``(B, C, T)`` tensor down to ``(B, C, output_size)``.

    A single autograd node instead of the former per-bin slice/concat graph:
    equal bins reduce via one reshape-sum (bit-identical to the slice path),
    unequal bins fall back to per-bin NumPy sums (same arithmetic, still no
    per-bin graph nodes), and the backward is one uniform scatter.
    """
    if output_size == 1:
        return x.mean(axis=2, keepdims=True)
    counts = np.diff(np.linspace(0, x.shape[2], output_size + 1).astype(int))
    out_data = _avg_pool1d_data(x.data, output_size)

    def backward(grad):
        if x.requires_grad:
            scale = (1.0 / counts).astype(grad.dtype, copy=False)
            x._accumulate(np.repeat(grad * scale, counts, axis=2))

    return Tensor._make(out_data, (x,), backward)


def adaptive_avg_pool2d(x: Tensor, output_size: int = 1) -> Tensor:
    """Average pool a ``(B, C, H, W)`` tensor down to ``(B, C, s, s)``.

    Vectorized like :func:`adaptive_avg_pool1d`: one autograd node, equal
    bins via a reshape-sum (bit-identical to the former nested h/w slice
    loops), unequal bins via per-bin NumPy sums.
    """
    if output_size == 1:
        return x.mean(axis=(2, 3), keepdims=True)
    h_counts = np.diff(np.linspace(0, x.shape[2], output_size + 1).astype(int))
    w_counts = np.diff(np.linspace(0, x.shape[3], output_size + 1).astype(int))
    out_data = _avg_pool2d_data(x.data, output_size)

    def backward(grad):
        if x.requires_grad:
            scale = (1.0 / (h_counts[:, None] * w_counts[None, :])).astype(grad.dtype, copy=False)
            spread = np.repeat(grad * scale, h_counts, axis=2)
            x._accumulate(np.repeat(spread, w_counts, axis=3))

    return Tensor._make(out_data, (x,), backward)


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: zero activations with probability ``p`` during training."""
    if not training or p <= 0.0:
        return x
    if p >= 1.0:
        raise ValueError("dropout probability must be < 1")
    mask = (rng.random(x.shape) >= p).astype(x.data.dtype) / (1.0 - p)
    return x * Tensor(mask)
