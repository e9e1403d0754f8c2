"""Float32/float64 parity suite and fused-inference equivalence tests.

PR 4 threads the ``DtypePolicy`` through the whole compute core and adds the
fused no-grad inference path.  These tests pin the contract:

* the float64 path stays the bit-exact reference (vectorized col2im, in
  float64 and float32, and the pooling rewrite are bit-identical to their
  loop predecessors),
* float32 training tracks the float64 loss curves within tolerance,
* inference (``Module.forward`` under ``no_grad()`` in a ``StepArena``,
  BN folded at load) is equivalent to the grad-enabled eval-mode forward —
  exactly, except the batch-invariant row-wise linear whose summation order
  differs by <= 1 ulp — and bitwise independent of batch composition,
* checkpoints round-trip ``compute_dtype`` without silent upcasts.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.core.config import AimTSConfig, FineTuneConfig
from repro.core.finetuner import FineTuner
from repro.core.pretrainer import AimTSPretrainer
from repro.data.archives import make_dataset
from repro.data.loaders import z_normalize
from repro.encoders import ImageEncoder, TSEncoder
from repro.nn import functional as F
from repro.nn.arena import StepArena, use_arena
from repro.nn.inference import fold_batchnorms
from repro.nn.layers import BatchNorm1d, Conv1d
from repro.nn.tensor import Tensor, default_dtype, get_default_dtype, no_grad


def small_config(**overrides) -> AimTSConfig:
    base = dict(
        repr_dim=16,
        proj_dim=8,
        hidden_channels=8,
        depth=2,
        panel_size=24,
        series_length=64,
        n_variables=2,
        batch_size=8,
        epochs=2,
        seed=3407,
    )
    base.update(overrides)
    return AimTSConfig(**base)


@pytest.fixture()
def pool() -> np.ndarray:
    return np.random.default_rng(0).normal(size=(32, 2, 64))


# --------------------------------------------------------------------------- #
# default-dtype scope
# --------------------------------------------------------------------------- #
class TestDefaultDtypeScope:
    def test_scope_restores_on_exit(self):
        assert get_default_dtype() == np.float64
        with default_dtype(np.float32):
            assert get_default_dtype() == np.float32
            assert Tensor([1.0, 2.0]).data.dtype == np.float32
        assert get_default_dtype() == np.float64
        assert Tensor([1.0, 2.0]).data.dtype == np.float64

    def test_scope_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with default_dtype(np.float32):
                raise RuntimeError("boom")
        assert get_default_dtype() == np.float64

    def test_rejects_unsupported_dtypes(self):
        with pytest.raises(ValueError, match="float32 or float64"):
            with default_dtype(np.int64):
                pass  # pragma: no cover

    def test_gradients_follow_parameter_dtype(self):
        with default_dtype(np.float32):
            x = Tensor(np.ones((3, 4)), requires_grad=True)
            loss = (x * x).sum()
            loss.backward()
        assert x.data.dtype == np.float32
        assert x.grad.dtype == np.float32


# --------------------------------------------------------------------------- #
# vectorized kernels vs their loop references
# --------------------------------------------------------------------------- #
def _in_both_dtypes(cases):
    """Each ``(shape, *ints)`` case once in float64 and once in float32.

    The float64 cases keep the ids they had before float32 joined
    (``shape<i>-<ints>``); the float32 ids end in ``-float32``.
    """
    params = []
    for dtype in (np.float64, np.float32):
        for index, (shape, *ints) in enumerate(cases):
            case_id = "-".join([f"shape{index}", *map(str, ints)])
            if dtype is np.float32:
                case_id += "-float32"
            params.append(pytest.param(shape, *ints, dtype, id=case_id))
    return params


class TestVectorizedKernels:
    @pytest.mark.parametrize(
        "shape,kernel,stride,dilation,dtype",
        _in_both_dtypes(
            [
                ((2, 3, 17), 3, 1, 1),
                ((2, 3, 33), 3, 2, 2),
                ((1, 2, 40), 5, 3, 1),
                ((3, 1, 96), 3, 1, 4),
            ]
        ),
    )
    def test_col2im_1d_bit_identical(self, shape, kernel, stride, dilation, dtype):
        batch, channels, length = shape
        span = (kernel - 1) * dilation + 1
        out_t = (length - span) // stride + 1
        cols = np.random.default_rng(1).normal(size=(batch, out_t, channels * kernel)).astype(dtype)
        fast = F._col2im_1d(cols, shape, kernel, stride, dilation)
        reference = F._col2im_1d_reference(cols, shape, kernel, stride, dilation)
        assert fast.dtype == reference.dtype == dtype
        assert np.array_equal(fast, reference)

    @pytest.mark.parametrize(
        "shape,kernel,stride,dtype",
        _in_both_dtypes([((2, 3, 9, 9), 3, 1), ((2, 3, 16, 16), 3, 2), ((1, 2, 12, 12), 4, 3)]),
    )
    def test_col2im_2d_bit_identical(self, shape, kernel, stride, dtype):
        batch, channels, height, width = shape
        out_h = (height - kernel) // stride + 1
        out_w = (width - kernel) // stride + 1
        cols = np.random.default_rng(2).normal(
            size=(batch, out_h, out_w, channels * kernel * kernel)
        ).astype(dtype)
        fast = F._col2im_2d(cols, shape, (kernel, kernel), (stride, stride))
        reference = F._col2im_2d_reference(cols, shape, (kernel, kernel), (stride, stride))
        assert fast.dtype == reference.dtype == dtype
        assert np.array_equal(fast, reference)

    def test_col2im_1d_float32_round_trips_dtype(self):
        cols = np.random.default_rng(3).normal(size=(2, 15, 6)).astype(np.float32)
        out = F._col2im_1d(cols, (2, 2, 17), 3, 1, 1)
        assert out.dtype == np.float32

    @pytest.mark.parametrize("length,output_size", [(96, 4), (96, 5), (100, 7), (64, 64)])
    def test_adaptive_avg_pool1d_matches_slice_concat_path(self, length, output_size):
        x = Tensor(np.random.default_rng(4).normal(size=(3, 5, length)), requires_grad=True)
        out = F.adaptive_avg_pool1d(x, output_size)

        reference_x = Tensor(x.data.copy(), requires_grad=True)
        edges = np.linspace(0, length, output_size + 1).astype(int)
        pieces = [
            reference_x[:, :, start:stop].mean(axis=2, keepdims=True)
            for start, stop in zip(edges[:-1], edges[1:])
        ]
        reference = Tensor.concat(pieces, axis=2)

        assert np.array_equal(out.data, reference.data)
        grad = np.random.default_rng(5).normal(size=out.shape)
        out.backward(grad)
        reference.backward(grad)
        assert np.array_equal(x.grad, reference_x.grad)

    @pytest.mark.parametrize("size,output_size", [(24, 3), (32, 4), (33, 4)])
    def test_adaptive_avg_pool2d_matches_slice_concat_path(self, size, output_size):
        x = Tensor(np.random.default_rng(6).normal(size=(2, 4, size, size)), requires_grad=True)
        out = F.adaptive_avg_pool2d(x, output_size)

        reference_x = Tensor(x.data.copy(), requires_grad=True)
        edges = np.linspace(0, size, output_size + 1).astype(int)
        rows = []
        for h0, h1 in zip(edges[:-1], edges[1:]):
            cells = [
                reference_x[:, :, h0:h1, w0:w1].mean(axis=(2, 3), keepdims=True)
                for w0, w1 in zip(edges[:-1], edges[1:])
            ]
            rows.append(Tensor.concat(cells, axis=3))
        reference = Tensor.concat(rows, axis=2)

        assert np.array_equal(out.data, reference.data)
        grad = np.random.default_rng(7).normal(size=out.shape)
        out.backward(grad)
        reference.backward(grad)
        assert np.array_equal(x.grad, reference_x.grad)


# --------------------------------------------------------------------------- #
# float32 vs float64 training parity
# --------------------------------------------------------------------------- #
class TestTrainingDtypeParity:
    def test_pretrain_curves_agree_across_dtypes(self, pool):
        h64 = AimTSPretrainer(small_config()).fit(pool)
        h32 = AimTSPretrainer(
            small_config(compute_dtype="float32")
        ).fit(pool)
        assert np.allclose(h64.total_loss, h32.total_loss, rtol=1e-3, atol=1e-3)
        assert np.allclose(h64.prototype_loss, h32.prototype_loss, rtol=1e-3, atol=1e-3)
        assert np.allclose(h64.series_image_loss, h32.series_image_loss, rtol=1e-3, atol=1e-3)

    def test_float32_pretrain_keeps_float32_everywhere(self, pool):
        pretrainer = AimTSPretrainer(small_config(compute_dtype="float32"))
        pretrainer.fit(pool)
        for name, param in pretrainer.ts_encoder.named_parameters():
            assert param.data.dtype == np.float32, name
        for moment in pretrainer.trainer.optimizer._m:
            assert moment.dtype == np.float32
        assert pretrainer.encode(pool[:4]).dtype == np.float32
        assert get_default_dtype() == np.float64  # scope did not leak

    def test_finetune_curves_agree_across_dtypes(self):
        dataset = make_dataset(
            "parity", "ecg", n_classes=2, n_train=32, n_test=16, length=64, n_variables=1, seed=0
        )
        curves = {}
        predictions = {}
        for dtype in (np.float64, np.float32):
            with default_dtype(dtype):
                encoder = TSEncoder(hidden_channels=8, repr_dim=16, depth=1, rng=7)
            finetuner = FineTuner(
                encoder, dataset.n_classes, FineTuneConfig(epochs=5, batch_size=8, seed=3407)
            )
            curves[dtype] = list(finetuner.fit(dataset.train))
            predictions[dtype] = finetuner.predict(dataset.test.X)
        assert np.allclose(curves[np.float64], curves[np.float32], rtol=1e-3, atol=1e-3)
        assert (predictions[np.float64] == predictions[np.float32]).mean() >= 0.9


# --------------------------------------------------------------------------- #
# no-grad inference
# --------------------------------------------------------------------------- #
def _eval_forward(*modules, X: np.ndarray) -> np.ndarray:
    """The grad-enabled eval-mode forward through ``modules`` (the reference)."""
    for module in modules:
        module.eval()
    try:
        out = Tensor(X)
        for module in modules:
            out = module(out)
        return out.data
    finally:
        for module in modules:
            module.train()


def _fitted_finetuner() -> tuple[FineTuner, np.ndarray]:
    dataset = make_dataset(
        "fused", "motion", n_classes=3, n_train=24, n_test=12, length=48, n_variables=2, seed=1
    )
    finetuner = FineTuner(
        TSEncoder(hidden_channels=8, repr_dim=16, depth=2, rng=3),
        dataset.n_classes,
        FineTuneConfig(epochs=2, batch_size=8, seed=3407),
    )
    finetuner.fit(dataset.train)
    return finetuner, dataset.test.X


class TestFusedInference:
    # Inference runs ``Module.forward`` under ``no_grad()``, where ``Linear``
    # computes 2-D inputs row by row so a sample's result is independent of
    # its batch (required for micro-batched serving to be bit-identical to
    # direct predict).  The recorded forward keeps the full-batch gemm, whose
    # kernel choice depends on the row count, so no-grad-vs-recorded
    # equivalence is exact arithmetic up to the linear layers' summation
    # order (<= 1 ulp); batch-INVARIANCE of the no-grad path itself is
    # asserted bitwise.
    def test_encode_fused_matches_unfused(self, pool):
        pretrainer = AimTSPretrainer(small_config())
        pretrainer.fit(pool)
        X = np.random.default_rng(8).normal(size=(20, 2, 64))
        np.testing.assert_allclose(
            pretrainer.encode(X), _eval_forward(pretrainer.ts_encoder, X=X),
            rtol=1e-12, atol=1e-14,
        )

    def test_fused_encode_is_batch_invariant(self, pool):
        pretrainer = AimTSPretrainer(small_config())
        pretrainer.fit(pool)
        X = np.random.default_rng(8).normal(size=(20, 2, 64))
        full = pretrainer.encode(X)
        for start, stop in ((0, 1), (3, 7), (10, 20)):
            sub = pretrainer.encode(X[start:stop])
            np.testing.assert_array_equal(sub, full[start:stop])

    def test_predict_logits_fused_matches_unfused(self):
        finetuner, X = _fitted_finetuner()
        fused = finetuner.predict_logits(X)
        unfused = _eval_forward(finetuner.encoder, finetuner.classifier, X=z_normalize(X))
        np.testing.assert_allclose(fused, unfused, rtol=1e-12, atol=1e-14)
        # the serving guarantee: per-sample logits independent of batching
        for start, stop in ((0, 1), (2, 5), (5, 12)):
            sub = finetuner.predict_logits(X[start:stop])
            np.testing.assert_array_equal(sub, fused[start:stop])

    def test_bn_folding_matches_unfused_eval_forward(self):
        rng = np.random.default_rng(9)
        encoder = ImageEncoder(repr_dim=16, base_channels=8, depth=2, rng=11)
        images = rng.normal(size=(6, 3, 24, 24))
        for _ in range(3):  # move the BN running stats away from init
            encoder(images + rng.normal(size=images.shape))
        encoder.eval()
        with no_grad():
            reference = encoder(Tensor(images)).data
        assert fold_batchnorms(encoder) == 2
        encoder.train(True)
        fused = encoder.infer(images)
        np.testing.assert_allclose(fused, reference, rtol=1e-10, atol=1e-12)
        assert all(module.training for module in encoder.modules())

    @pytest.mark.parametrize("start_training", [False, True])
    def test_inference_restores_every_train_eval_flag(self, start_training):
        finetuner, X = _fitted_finetuner()
        modules = [*finetuner.encoder.modules(), *finetuner.classifier.modules()]
        for module in modules:
            module.training = start_training
        finetuner.predict_logits(X)
        finetuner.predict_proba(X[:3], batch_size=2)
        assert [module.training for module in modules] == [start_training] * len(modules)

    def test_predict_logits_result_does_not_alias_the_arena(self):
        finetuner, X = _fitted_finetuner()
        first = finetuner.predict_logits(X)
        held = first.copy()
        finetuner.predict_logits(X[::-1].copy())  # same shape, different rows
        np.testing.assert_array_equal(first, held)

    def test_encode_result_does_not_alias_the_arena(self, pool):
        # "mean" aggregation: the last op is a reduction, not a Linear
        pretrainer = AimTSPretrainer(small_config(encode_batch_size=8))
        assert pretrainer.ts_encoder.channel_aggregation == "mean"
        X = np.random.default_rng(12).normal(size=(20, 2, 64))
        first = pretrainer.encode(X)
        held = first.copy()
        pretrainer.encode(np.random.default_rng(13).normal(size=X.shape))
        np.testing.assert_array_equal(first, held)

    def test_workspace_reuses_buffers_across_calls(self, pool):
        pretrainer = AimTSPretrainer(small_config())
        X = np.random.default_rng(10).normal(size=(16, 2, 64))
        pretrainer.encode(X, batch_size=8)
        misses = pretrainer._workspace.misses
        assert misses > 0
        pretrainer.encode(X, batch_size=8)
        assert pretrainer._workspace.misses == misses  # steady state allocates nothing
        assert pretrainer._workspace.hits > 0

    def test_workspace_steady_state_with_partial_tail_batch(self):
        # 10 % 4 != 0: the smaller tail micro-batch gets its own buffers
        # (keyed by shape) instead of thrashing the full-batch ones
        pretrainer = AimTSPretrainer(small_config())
        X = np.random.default_rng(13).normal(size=(10, 2, 64))
        pretrainer.encode(X, batch_size=4)
        misses = pretrainer._workspace.misses
        pretrainer.encode(X, batch_size=4)
        assert pretrainer._workspace.misses == misses

    def test_encode_batch_size_comes_from_config_and_is_resolution_invariant(self, pool):
        pretrainer = AimTSPretrainer(small_config(encode_batch_size=4))
        X = np.random.default_rng(11).normal(size=(10, 2, 64))
        assert np.array_equal(pretrainer.encode(X), pretrainer.encode(X, batch_size=10))


# --------------------------------------------------------------------------- #
# PR 10: fused training kernels + step arena vs the decomposed reference
# --------------------------------------------------------------------------- #
def _arena_scope(arena: bool):
    """A fresh pooled scope, or the allocate-fresh no-op."""
    return use_arena(StepArena()) if arena else contextlib.nullcontext()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("arena", [False, True], ids=["alloc", "arena"])
class TestFusedTrainingKernels:
    """Every fused / in-place training kernel is bit-identical to the
    decomposed closure reference — outputs AND gradients, both dtypes, with
    the step arena on and off.  ``np.array_equal`` throughout: pooling and
    fusion must not change a single bit (the pooled buffers replicate the
    allocate-fresh memory layouts so reduction orders are unchanged)."""

    def test_conv1d_fused_relu(self, dtype, arena):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(4, 3, 32))
        grad = rng.normal(size=(4, 5, 32)).astype(dtype)
        results = {}
        for fused in (True, False):
            with default_dtype(dtype):
                conv = Conv1d(3, 5, 3, padding=2, dilation=2, rng=13)
                inp = Tensor(x, requires_grad=True)
                with _arena_scope(arena):
                    out = conv(inp, relu=True) if fused else conv(inp).relu()
                    out.backward(grad)
            results[fused] = (
                out.data.copy(),
                inp.grad.copy(),
                conv.weight.grad.copy(),
                conv.bias.grad.copy(),
            )
        for fused_side, reference_side in zip(results[True], results[False]):
            assert np.array_equal(fused_side, reference_side)

    def test_add_relu(self, dtype, arena):
        rng = np.random.default_rng(22)
        a = rng.normal(size=(4, 6, 16))
        b = rng.normal(size=(4, 6, 16))
        grad = rng.normal(size=(4, 6, 16)).astype(dtype)
        results = {}
        for fused in (True, False):
            with default_dtype(dtype):
                left = Tensor(a, requires_grad=True)
                right = Tensor(b, requires_grad=True)
                with _arena_scope(arena):
                    out = left.add_relu(right) if fused else (left + right).relu()
                    out.backward(grad)
            results[fused] = (out.data.copy(), left.grad.copy(), right.grad.copy())
        for fused_side, reference_side in zip(results[True], results[False]):
            assert np.array_equal(fused_side, reference_side)

    def test_batch_norm_train(self, dtype, arena):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(4, 6, 16))
        grad = rng.normal(size=(4, 6, 16)).astype(dtype)
        scale = rng.normal(size=6)
        shift = rng.normal(size=6)
        results = {}
        for fused in (True, False):
            with default_dtype(dtype):
                bn = BatchNorm1d(6)
                bn.fused = fused
                bn.weight.data[:] = scale
                bn.bias.data[:] = shift
                inp = Tensor(x, requires_grad=True)
                with _arena_scope(arena):
                    out = bn(inp)
                    out.backward(grad)
            results[fused] = (
                out.data.copy(),
                inp.grad.copy(),
                bn.weight.grad.copy(),
                bn.bias.grad.copy(),
                bn.running_mean.copy(),
                bn.running_var.copy(),
            )
        for fused_side, reference_side in zip(results[True], results[False]):
            assert np.array_equal(fused_side, reference_side)

    def test_ts_encoder_fused_graph(self, dtype, arena):
        rng = np.random.default_rng(24)
        x = rng.normal(size=(4, 2, 64))
        results = {}
        for fused in (True, False):
            with default_dtype(dtype):
                encoder = TSEncoder(hidden_channels=8, repr_dim=16, depth=2, rng=5)
                for module in encoder.modules():
                    if hasattr(module, "fused"):
                        module.fused = fused
                with _arena_scope(arena):
                    out = encoder(Tensor(x))
                    (out * out).sum().backward()
            results[fused] = (
                out.data.copy(),
                {n: p.grad.copy() for n, p in encoder.named_parameters() if p.grad is not None},
            )
        assert np.array_equal(results[True][0], results[False][0])
        assert results[True][1].keys() == results[False][1].keys()
        for name, reference_grad in results[False][1].items():
            assert np.array_equal(results[True][1][name], reference_grad), name

    def test_image_encoder_fused_graph(self, dtype, arena):
        rng = np.random.default_rng(25)
        images = rng.normal(size=(4, 3, 24, 24))
        results = {}
        for fused in (True, False):
            with default_dtype(dtype):
                encoder = ImageEncoder(repr_dim=16, base_channels=8, depth=2, rng=11)
                for module in encoder.modules():
                    if hasattr(module, "fused"):
                        module.fused = fused
                with _arena_scope(arena):
                    out = encoder(Tensor(images))
                    (out * out).sum().backward()
            results[fused] = (
                out.data.copy(),
                {n: p.grad.copy() for n, p in encoder.named_parameters() if p.grad is not None},
                {n: v.copy() for n, v in encoder.state_dict().items()},
            )
        assert np.array_equal(results[True][0], results[False][0])
        for name, reference_grad in results[False][1].items():
            assert np.array_equal(results[True][1][name], reference_grad), name
        # BN running statistics advanced identically through the fused node
        for name, reference_state in results[False][2].items():
            assert np.array_equal(results[True][2][name], reference_state), name


class TestStepArenaCurveParity:
    """Composition-level contract of ISSUE 10: full pre-training curves are
    bit-identical with the step arena on and off — the pooled buffers must
    replicate the exact layouts (and therefore reduction orders) the
    allocate-fresh graph produces, conv transpose views included."""

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_pretrain_curves_bit_identical_arena_on_off(self, dtype, pool):
        histories = {}
        for step_arena in (True, False):
            config = small_config(compute_dtype=dtype, step_arena=step_arena)
            histories[step_arena] = AimTSPretrainer(config).fit(pool)
        for metric in ("total_loss", "prototype_loss", "series_image_loss"):
            on = getattr(histories[True], metric)
            off = getattr(histories[False], metric)
            assert on == off, metric  # exact float equality, not allclose


# --------------------------------------------------------------------------- #
# checkpoint round trips
# --------------------------------------------------------------------------- #
class TestCheckpointDtypeFidelity:
    def test_save_load_preserves_compute_dtype(self, pool, tmp_path):
        from repro.api import load_estimator, make_estimator

        model = make_estimator(
            "aimts", config=small_config(compute_dtype="float32")
        )
        model.pretrain(pool)
        path = model.save(tmp_path / "model32")
        restored = load_estimator(path)
        assert restored.config.compute_dtype == "float32"
        for name, param in restored.pretrainer.ts_encoder.named_parameters():
            assert param.data.dtype == np.float32, name
        X = np.random.default_rng(12).normal(size=(8, 2, 64))
        assert np.array_equal(restored.encode(X), model.encode(X))
        assert restored.encode(X).dtype == np.float32

    def test_float32_finetuned_bundle_round_trips_predictions(self, pool, tmp_path):
        from repro.api import load_estimator, make_estimator

        dataset = make_dataset(
            "bundle32", "ecg", n_classes=2, n_train=24, n_test=12, length=64, n_variables=2, seed=2
        )
        model = make_estimator("aimts", config=small_config(compute_dtype="float32"))
        model.pretrain(pool)
        model.fine_tune(dataset, FineTuneConfig(epochs=2, batch_size=8, seed=3407))
        path = model.save(tmp_path / "finetuned32")
        restored = load_estimator(path)
        assert np.array_equal(restored.predict(dataset.test.X), model.predict(dataset.test.X))
        proba = restored.predict_proba(dataset.test.X)
        assert np.array_equal(proba.argmax(axis=1), restored.predict(dataset.test.X))
