"""Convolution FLOP formulas against a brute-force count, and the per-layer table."""

import numpy as np
import pytest

from perfbench import spec
from perfbench.layers import conv1d_flops, conv2d_flops, per_layer_metrics, request_waits_ms
from perfbench.loadgen import OK, RungResult
from perfbench.trace import Span


def _positions(size, kernel_span, stride):
    """Window start positions that fit, counted one by one."""
    count, start = 0, 0
    while start + kernel_span <= size:
        count += 1
        start += stride
    return count


def _brute_conv1d(x_shape, w_shape, stride, padding, dilation):
    batch, _, length = x_shape
    out_channels, in_channels, kernel = w_shape
    out_length = _positions(length + 2 * padding, dilation * (kernel - 1) + 1, stride)
    flops = 0
    for _ in range(batch * out_channels * out_length):
        for _ in range(in_channels * kernel):
            flops += 2  # one multiply, one add
    return flops, out_length


def _brute_conv2d(x_shape, w_shape, stride, padding):
    batch, _, height, width = x_shape
    out_channels, in_channels, kh, kw = w_shape
    (sh, sw), (ph, pw) = stride, padding
    out_h = _positions(height + 2 * ph, kh, sh)
    out_w = _positions(width + 2 * pw, kw, sw)
    flops = 0
    for _ in range(batch * out_channels * out_h * out_w):
        for _ in range(in_channels * kh * kw):
            flops += 2
    return flops, (out_h, out_w)


@pytest.mark.parametrize(
    ("x_shape", "w_shape", "stride", "padding", "dilation"),
    [
        ((2, 1, 9), (3, 1, 3), 1, 1, 1),
        ((1, 2, 10), (4, 2, 3), 2, 0, 2),
        ((2, 3, 7), (2, 3, 2), 3, 2, 1),
        ((1, 16, 96), (16, 16, 3), 1, 4, 4),
    ],
)
def test_conv1d_flops(x_shape, w_shape, stride, padding, dilation):
    from repro.nn import functional as F
    from repro.nn.tensor import Tensor

    flops, out_length = _brute_conv1d(x_shape, w_shape, stride, padding, dilation)
    assert conv1d_flops(x_shape, w_shape, stride=stride, padding=padding, dilation=dilation) == flops
    out = F.conv1d(
        Tensor(np.zeros(x_shape)), Tensor(np.zeros(w_shape)), stride=stride, padding=padding, dilation=dilation
    )
    assert out.shape[2] == out_length


@pytest.mark.parametrize(
    ("x_shape", "w_shape", "stride", "padding"),
    [
        ((2, 3, 8, 8), (4, 3, 3, 3), (2, 2), (1, 1)),
        ((1, 2, 5, 7), (3, 2, 2, 3), (1, 2), (0, 1)),
        ((1, 3, 32, 32), (8, 3, 3, 3), (2, 2), (1, 1)),
    ],
)
def test_conv2d_flops(x_shape, w_shape, stride, padding):
    from repro.nn import functional as F
    from repro.nn.tensor import Tensor

    flops, out_hw = _brute_conv2d(x_shape, w_shape, stride, padding)
    assert conv2d_flops(x_shape, w_shape, stride=stride, padding=padding) == flops
    if stride[0] == stride[1] and padding[0] == padding[1]:
        assert conv2d_flops(x_shape, w_shape, stride=stride[0], padding=padding[0]) == flops
    out = F.conv2d(Tensor(np.zeros(x_shape)), Tensor(np.zeros(w_shape)), stride=stride, padding=padding)
    assert tuple(out.shape[2:]) == out_hw


def test_per_layer_metrics_cover_the_spec():
    values = per_layer_metrics([], {})
    assert list(values) == [name for name, _, _ in spec.PER_LAYER]
    assert all(value == 0.0 for value in values.values())


def test_per_layer_metrics_from_spans():
    spans = [
        Span(1, 0, "nn.conv1d", 0.0, 0.5, 0, None, 2e9),
        Span(2, 0, "nn.conv1d", 1.0, 1.5, 0, None, 1e9),
    ]
    values = per_layer_metrics(spans, {"engine.steps": 4})
    assert (values["nn.conv1d_calls"], values["nn.conv1d_s"], values["nn.conv1d_gflops"]) == (2.0, 1.0, 3.0)
    assert values["engine.steps"] == 4.0


def test_request_wait_subtracts_the_answering_batch():
    rung = RungResult(
        rate=1.0,
        start=0.0,
        duration_s=1.0,
        scheduled=np.array([0.0, 0.1]),
        sent=np.array([0.0, 0.1]),
        done=np.array([0.05, 0.3]),
        outcome=np.array([OK, OK], dtype=np.int8),
        done_thread=np.array([7, 7]),
    )
    spans = [
        Span(1, 0, "serving.compute", 0.01, 0.04, 7, None, 3.0),
        Span(2, 0, "serving.compute", 0.2, 0.29, 7, None, 1.0),
    ]
    assert request_waits_ms(spans, [rung]) == pytest.approx([20.0, 110.0])
