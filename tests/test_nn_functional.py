"""Tests for functional primitives: convolutions, pooling, losses, similarity."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.nn import functional as F
from repro.nn.arena import StepArena, use_arena
from repro.nn.tensor import Tensor
from tests.test_nn_tensor import numerical_gradient


def _numeric_check(build_scalar, array, autograd_grad, tolerance=1e-5):
    numeric = numerical_gradient(build_scalar, array)
    np.testing.assert_allclose(autograd_grad, numeric, atol=tolerance, rtol=1e-4)


class TestSoftmaxFamily:
    def test_softmax_sums_to_one(self, rng):
        x = Tensor(rng.normal(size=(4, 7)))
        probs = F.softmax(x, axis=-1)
        np.testing.assert_allclose(probs.data.sum(axis=-1), np.ones(4), atol=1e-12)

    def test_softmax_invariant_to_shift(self, rng):
        x = rng.normal(size=(3, 5))
        a = F.softmax(Tensor(x)).data
        b = F.softmax(Tensor(x + 100.0)).data
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_log_softmax_matches_log_of_softmax(self, rng):
        x = Tensor(rng.normal(size=(3, 5)))
        np.testing.assert_allclose(F.log_softmax(x).data, np.log(F.softmax(x).data), atol=1e-9)

    def test_cross_entropy_value(self):
        logits = Tensor(np.array([[10.0, 0.0], [0.0, 10.0]]))
        loss = F.cross_entropy(logits, np.array([0, 1]))
        assert loss.item() < 1e-3

    def test_cross_entropy_uniform_logits(self):
        logits = Tensor(np.zeros((5, 4)))
        loss = F.cross_entropy(logits, np.zeros(5, dtype=int))
        assert loss.item() == pytest.approx(np.log(4.0))

    def test_cross_entropy_gradient(self, rng):
        logits = rng.normal(size=(6, 3))
        targets = rng.integers(0, 3, size=6)
        t = Tensor(logits, requires_grad=True)
        F.cross_entropy(t, targets).backward()
        _numeric_check(
            lambda: float(F.cross_entropy(Tensor(logits), targets).data), logits, t.grad
        )

    def test_cross_entropy_sum_reduction(self, rng):
        logits = Tensor(rng.normal(size=(4, 3)))
        targets = np.array([0, 1, 2, 0])
        mean = F.cross_entropy(logits, targets, reduction="mean").item()
        total = F.cross_entropy(logits, targets, reduction="sum").item()
        assert total == pytest.approx(mean * 4)

    def test_cross_entropy_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            F.cross_entropy(Tensor(np.zeros((2, 3, 4))), np.array([0, 1]))
        with pytest.raises(ValueError):
            F.cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 1, 2]))
        with pytest.raises(ValueError):
            F.cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 1]), reduction="bogus")

    def test_nll_accuracy(self):
        logits = np.array([[2.0, 1.0], [0.0, 3.0], [5.0, 0.0]])
        assert F.nll_accuracy(logits, np.array([0, 1, 1])) == pytest.approx(2 / 3)


class TestNormalisation:
    def test_l2_normalize_unit_norm(self, rng):
        x = Tensor(rng.normal(size=(5, 8)))
        norms = np.linalg.norm(F.l2_normalize(x).data, axis=-1)
        np.testing.assert_allclose(norms, np.ones(5), atol=1e-9)

    def test_l2_normalize_zero_vector_is_finite(self):
        x = Tensor(np.zeros((1, 4)))
        assert np.all(np.isfinite(F.l2_normalize(x).data))

    def test_cosine_similarity_matrix_range(self, rng):
        a = Tensor(rng.normal(size=(4, 6)))
        b = Tensor(rng.normal(size=(3, 6)))
        sims = F.cosine_similarity_matrix(a, b).data
        assert sims.shape == (4, 3)
        assert np.all(sims <= 1.0 + 1e-9) and np.all(sims >= -1.0 - 1e-9)

    def test_cosine_self_similarity_is_one(self, rng):
        a = Tensor(rng.normal(size=(3, 5)))
        sims = F.cosine_similarity_matrix(a, a).data
        np.testing.assert_allclose(np.diag(sims), np.ones(3), atol=1e-9)

    def test_mse_loss(self, rng):
        pred = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        target = rng.normal(size=(4, 3))
        loss = F.mse_loss(pred, target)
        assert loss.item() == pytest.approx(((pred.data - target) ** 2).mean())
        loss.backward()
        assert pred.grad.shape == (4, 3)


class TestConvolutions:
    @pytest.mark.parametrize("stride,padding,dilation", [(1, 0, 1), (2, 1, 1), (1, 2, 2), (2, 2, 3)])
    def test_conv1d_gradients(self, rng, stride, padding, dilation):
        x = rng.normal(size=(2, 2, 13))
        w = rng.normal(size=(3, 2, 3))
        b = rng.normal(size=(3,))
        tx, tw, tb = (Tensor(a, requires_grad=True) for a in (x, w, b))
        out = F.conv1d(tx, tw, tb, stride=stride, padding=padding, dilation=dilation)
        (out**2).sum().backward()

        def scalar():
            return float(
                (
                    F.conv1d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding, dilation=dilation).data
                    ** 2
                ).sum()
            )

        _numeric_check(scalar, x, tx.grad)
        _numeric_check(scalar, w, tw.grad)
        _numeric_check(scalar, b, tb.grad)

    def test_conv1d_output_length(self, rng):
        x = Tensor(rng.normal(size=(1, 1, 20)))
        w = Tensor(rng.normal(size=(4, 1, 3)))
        out = F.conv1d(x, w, None, stride=1, padding=1)
        assert out.shape == (1, 4, 20)

    def test_conv1d_channel_mismatch(self, rng):
        with pytest.raises(ValueError):
            F.conv1d(Tensor(rng.normal(size=(1, 2, 10))), Tensor(rng.normal(size=(4, 3, 3))))

    def test_conv1d_rejects_2d_input(self, rng):
        with pytest.raises(ValueError):
            F.conv1d(Tensor(rng.normal(size=(2, 10))), Tensor(rng.normal(size=(4, 2, 3))))

    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1)])
    def test_conv2d_gradients(self, rng, stride, padding):
        x = rng.normal(size=(2, 2, 7, 7))
        w = rng.normal(size=(3, 2, 3, 3))
        tx, tw = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        out = F.conv2d(tx, tw, None, stride=stride, padding=padding)
        (out**2).sum().backward()

        def scalar():
            return float((F.conv2d(Tensor(x), Tensor(w), None, stride=stride, padding=padding).data ** 2).sum())

        _numeric_check(scalar, x, tx.grad, tolerance=1e-4)
        _numeric_check(scalar, w, tw.grad, tolerance=1e-4)

    def test_conv2d_matches_manual_single_pixel(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        w = Tensor(np.ones((1, 1, 3, 3)))
        out = F.conv2d(x, w, None)
        assert out.shape == (1, 1, 1, 1)
        assert out.item() == pytest.approx(9.0)


def _check_against_finite_differences(node, arrays, rng, arena):
    """Autograd gradients of ``sum(node(*inputs) * g)`` for every input array
    against central differences, with the node run under a fresh arena or
    none; ``g`` is drawn from ``rng``."""
    g = rng.normal(size=node(*(Tensor(a) for a in arrays)).shape)

    def scalar():
        return float((node(*(Tensor(a) for a in arrays)).data * g).sum())

    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    with use_arena(StepArena()) if arena else contextlib.nullcontext():
        (node(*tensors) * Tensor(g)).sum().backward()
    for array, tensor in zip(arrays, tensors):
        _numeric_check(scalar, array, tensor.grad)


def _check_conv_against_finite_differences(conv, seed, x_shape, w_shape, relu, arena, **kwargs):
    """Autograd x/weight/bias gradients of ``sum(conv(x, w, b) * g)`` against
    central differences, with the node run under a fresh arena or none."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=x_shape)
    w = rng.normal(size=w_shape)
    b = rng.normal(size=w_shape[0])
    pre_activation = conv(Tensor(x), Tensor(w), Tensor(b), **kwargs).data
    # the finite differences must not step across the ReLU's kink
    assume(not relu or np.abs(pre_activation).min() > 1e-3)
    _check_against_finite_differences(
        lambda x, w, b: conv(x, w, b, relu=relu, **kwargs), [x, w, b], rng, arena
    )


class TestConvGradientProperties:
    """float64 conv gradients (GEMM weight gradient, col2im input gradient,
    fused ReLU, arena-pooled buffers) against finite differences."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        batch=st.integers(1, 5),
        in_channels=st.integers(1, 3),
        out_channels=st.integers(1, 3),
        kernel=st.integers(1, 4),
        stride=st.integers(1, 3),
        padding=st.integers(0, 3),
        dilation=st.integers(1, 3),
        extra=st.integers(0, 8),
        relu=st.booleans(),
        arena=st.booleans(),
    )
    def test_conv1d(
        self, seed, batch, in_channels, out_channels, kernel, stride, padding, dilation, extra, relu, arena
    ):
        span = (kernel - 1) * dilation + 1
        length = max(1, span - 2 * padding) + extra
        _check_conv_against_finite_differences(
            F.conv1d, seed, (batch, in_channels, length), (out_channels, in_channels, kernel),
            relu, arena, stride=stride, padding=padding, dilation=dilation,
        )

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        batch=st.integers(1, 5),
        in_channels=st.integers(1, 3),
        out_channels=st.integers(1, 3),
        kernel=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        stride=st.tuples(st.integers(1, 2), st.integers(1, 2)),
        padding=st.tuples(st.integers(0, 2), st.integers(0, 2)),
        extra=st.tuples(st.integers(0, 4), st.integers(0, 4)),
        relu=st.booleans(),
        arena=st.booleans(),
    )
    def test_conv2d(self, seed, batch, in_channels, out_channels, kernel, stride, padding, extra, relu, arena):
        height, width = (max(1, k - 2 * p) + e for k, p, e in zip(kernel, padding, extra))
        _check_conv_against_finite_differences(
            F.conv2d, seed, (batch, in_channels, height, width), (out_channels, in_channels, *kernel),
            relu, arena, stride=stride, padding=padding,
        )


class TestFusedKernelGradientProperties:
    """float64 batch norm, pooling and ``add_relu`` gradients, arena on and
    off, against finite differences."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        batch=st.integers(1, 4),
        channels=st.integers(1, 3),
        spatial=st.lists(st.integers(1, 5), min_size=1, max_size=2),
        arena=st.booleans(),
    )
    def test_batch_norm_train(self, seed, batch, channels, spatial, arena):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(batch, channels, *spatial))
        axes = (0, *range(2, x.ndim))  # (0, 2) for BatchNorm1d, (0, 2, 3) for 2d
        shape = (1, channels, *(1,) * len(spatial))
        # a near-constant channel curves the normalisation beyond the differences
        assume(x.var(axis=axes).min() > 1e-2)
        _check_against_finite_differences(
            lambda x, w, b: F.batch_norm_train(x, w, b, axes=axes, shape=shape, eps=1e-5)[0],
            [x, rng.normal(size=channels), rng.normal(size=channels)],
            rng,
            arena,
        )

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        batch=st.integers(1, 3),
        channels=st.integers(1, 3),
        output_size=st.integers(1, 4),
        extra=st.integers(0, 8),
        arena=st.booleans(),
    )
    def test_adaptive_avg_pool1d(self, seed, batch, channels, output_size, extra, arena):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(batch, channels, output_size + extra))
        _check_against_finite_differences(
            lambda x: F.adaptive_avg_pool1d(x, output_size), [x], rng, arena
        )

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        batch=st.integers(1, 3),
        channels=st.integers(1, 2),
        output_size=st.integers(1, 3),
        extra=st.tuples(st.integers(0, 4), st.integers(0, 4)),
        arena=st.booleans(),
    )
    def test_adaptive_avg_pool2d(self, seed, batch, channels, output_size, extra, arena):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(batch, channels, output_size + extra[0], output_size + extra[1]))
        _check_against_finite_differences(
            lambda x: F.adaptive_avg_pool2d(x, output_size), [x], rng, arena
        )

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        batch=st.integers(1, 3),
        channels=st.integers(1, 2),
        kernel=st.integers(1, 3),
        stride=st.one_of(st.none(), st.integers(1, 3)),
        extra=st.tuples(st.integers(0, 4), st.integers(0, 4)),
        arena=st.booleans(),
    )
    def test_max_pool2d(self, seed, batch, channels, kernel, stride, extra, arena):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(batch, channels, kernel + extra[0], kernel + extra[1]))
        windows = np.lib.stride_tricks.sliding_window_view(x, (kernel, kernel), axis=(2, 3))
        step = stride or kernel
        top_two = np.sort(windows[:, :, ::step, ::step].reshape(-1, kernel * kernel), axis=1)[:, -2:]
        # the finite differences must not move a window's maximum to another element
        assume(kernel == 1 or np.min(top_two[:, 1] - top_two[:, 0]) > 1e-3)
        _check_against_finite_differences(
            lambda x: F.max_pool2d(x, kernel, stride), [x], rng, arena
        )

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 6)),
        broadcast=st.tuples(st.booleans(), st.booleans(), st.booleans()),
        arena=st.booleans(),
    )
    def test_add_relu(self, seed, shape, broadcast, arena):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=shape)
        b = rng.normal(size=tuple(1 if flag else n for n, flag in zip(shape, broadcast)))
        # the finite differences must not step across the ReLU's kink
        assume(np.abs(a + b).min() > 1e-3)
        _check_against_finite_differences(lambda a, b: a.add_relu(b), [a, b], rng, arena)


class TestPoolingAndDropout:
    def test_max_pool2d_values(self):
        x = Tensor(np.arange(16, dtype=float).reshape(1, 1, 4, 4))
        out = F.max_pool2d(x, 2)
        np.testing.assert_allclose(out.data[0, 0], [[5, 7], [13, 15]])

    def test_max_pool2d_gradient(self, rng):
        x = rng.normal(size=(1, 2, 6, 6))
        t = Tensor(x, requires_grad=True)
        (F.max_pool2d(t, 2) ** 2).sum().backward()
        _numeric_check(lambda: float((F.max_pool2d(Tensor(x), 2).data ** 2).sum()), x, t.grad)

    def test_adaptive_avg_pool1d_global(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 10)))
        out = F.adaptive_avg_pool1d(x, 1)
        np.testing.assert_allclose(out.data.squeeze(-1), x.data.mean(axis=2))

    def test_adaptive_avg_pool1d_multiple_bins(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 12)))
        assert F.adaptive_avg_pool1d(x, 4).shape == (2, 3, 4)

    def test_adaptive_avg_pool2d(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 8, 8)))
        assert F.adaptive_avg_pool2d(x, 1).shape == (2, 3, 1, 1)
        assert F.adaptive_avg_pool2d(x, 2).shape == (2, 3, 2, 2)

    def test_dropout_eval_is_identity(self, rng):
        x = Tensor(rng.normal(size=(4, 5)))
        out = F.dropout(x, 0.5, training=False, rng=rng)
        np.testing.assert_array_equal(out.data, x.data)

    def test_dropout_train_scales_surviving_units(self, rng):
        x = Tensor(np.ones((1000,)))
        out = F.dropout(x, 0.5, training=True, rng=rng)
        kept = out.data[out.data > 0]
        assert np.allclose(kept, 2.0)
        assert 0.35 < (out.data > 0).mean() < 0.65

    def test_dropout_rejects_p_one(self, rng):
        with pytest.raises(ValueError):
            F.dropout(Tensor(np.ones(3)), 1.0, training=True, rng=rng)
