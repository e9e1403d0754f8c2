"""Performance benchmarks for the unified training engine (perf marker).

Not part of any paper table — this module tracks the reproduction's own
training-throughput trajectory now that every epoch loop runs through
``repro.engine.Trainer``.  It measures

* pre-training: wall-clock per epoch and samples/s of a 2-epoch
  ``AimTSPretrainer.fit`` (both contrastive objectives on, render cache on),
* fine-tuning: wall-clock per epoch and samples/s of a ``FineTuner.fit`` run
  on a small labelled dataset,

and appends every run to ``BENCH_training.json`` at the repo root so
successive PRs can compare numbers on the same machine.

Excluded from tier-1 by the ``perf`` marker (see ``pytest.ini``); run with::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_training.py -m perf -s
"""

from __future__ import annotations

import contextlib
import os
import time
from pathlib import Path

import numpy as np
import pytest

from benchmarks.conftest import append_bench_record as _append
from benchmarks.conftest import machine_info as _machine
from repro.core.config import AimTSConfig, FineTuneConfig
from repro.core.finetuner import FineTuner
from repro.core.pretrainer import AimTSPretrainer
from repro.data.archives import make_dataset
from repro.encoders import TSEncoder
from repro.nn import functional as F
from repro.nn.arena import active_arena, result_template
from repro.nn.functional import _col2im_2d
from repro.nn.functional import conv1d as _conv1d
from repro.nn.inference import _pad, _project
from repro.nn.tensor import Tensor, is_grad_enabled

pytestmark = pytest.mark.perf

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_training.json"

#: pre-training pool shape (samples, variables, length)
POOL_SHAPE = (128, 1, 96)
PRETRAIN_EPOCHS = 2
FINETUNE_EPOCHS = 10
FINETUNE_TRAIN = 64

#: PR 5 acceptance gate: float32 + batched augmentations + n_workers=2 must
#: be >= 2x the PR 4 float32 path (per-sample augmentations, sequential).
#: Gradient workers split *compute* across cores, so the gate only arms when
#: the machine actually has a core per worker — on a single-core container
#: two processes time-share one core and the parallel arm is recorded
#: without gating (the sequential batched-augmentation arm must still not
#: regress).  Shared CI runners get the same relaxation as the PR 4 gates.
PARALLEL_WORKERS = 2

#: PR 8 pipelined arm: producer processes render + augment ahead of the
#: sequential gradient step through the shared-memory ring
PIPELINE_PRODUCERS = 2
PIPELINE_PREFETCH = 4


def _usable_cores() -> int:
    """Cores this process may actually run on (affinity-aware, unlike
    ``os.cpu_count()``, which reports the host's cores even inside a
    CPU-limited container)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


HAS_CORES = _usable_cores() >= PARALLEL_WORKERS
PARALLEL_GATE = (1.5 if os.environ.get("CI") else 2.0) if HAS_CORES else None

#: PR 8 acceptance gate: pipelined (producers + 1 consumer) must be >= 1.3x
#: the PR 5 batched sequential arm — but only when the machine has a usable
#: core for every process in the pipeline; containers with fewer cores
#: time-share and record the arm ungated.
HAS_PIPELINE_CORES = _usable_cores() >= PIPELINE_PRODUCERS + 1
PIPELINE_GATE = (1.15 if os.environ.get("CI") else 1.3) if HAS_PIPELINE_CORES else None

#: PR 10 acceptance gate: the allocation-free default path (step arena +
#: fused autograd nodes + per-tap im2col/col2im) must be >= 1.2x the PR 8
#: batched sequential arm, reproduced within-run by the reference arm of
#: :func:`test_pretrain_arena_throughput` (step arena off, fused graphs
#: decomposed, PR 8 conv scratch arithmetic).  The win is single-core NumPy
#: kernel + allocator work — no extra processes — so unlike the parallel
#: gates above this one arms unconditionally; shared CI runners get the
#: usual relaxation.
ARENA_GATE = 1.1 if os.environ.get("CI") else 1.2
#: interleaved timing repetitions per arm (best-of, robust to load spikes)
ARENA_REPS = 3
#: interleaved timing repetitions per arm of the parallel test, gated on each
#: arm's median: single 2-epoch fits of one unchanged tree spread with an
#: interquartile range of 10-22% of the median on 2 cores
PARALLEL_REPS = 9


def append_bench_record(record: dict) -> None:
    """Append one measurement record to ``BENCH_training.json``."""
    _append(BENCH_PATH, record)


def _pretrain_config(**overrides) -> AimTSConfig:
    """The reduced pre-training config every arm of this module runs."""
    return AimTSConfig(
        repr_dim=16,
        proj_dim=8,
        hidden_channels=8,
        depth=1,
        panel_size=24,
        series_length=POOL_SHAPE[2],
        n_variables=POOL_SHAPE[1],
        batch_size=16,
        epochs=PRETRAIN_EPOCHS,
        seed=3407,
        **overrides,
    )


def _timed_fit(pretrainer: AimTSPretrainer, pool: np.ndarray) -> float:
    """Samples/s of one ``PRETRAIN_EPOCHS`` fit of ``pretrainer`` on ``pool``."""
    before = len(pretrainer.history.total_loss)
    start = time.perf_counter()
    history = pretrainer.fit(pool, epochs=PRETRAIN_EPOCHS)
    fit_seconds = time.perf_counter() - start
    # the timed fit must have trained exactly the epochs the samples/s
    # denominator assumes (earlier fits share the history, hence the delta)
    assert len(history.total_loss) - before == PRETRAIN_EPOCHS
    assert all(np.isfinite(v) for v in history.total_loss)
    return POOL_SHAPE[0] * PRETRAIN_EPOCHS / fit_seconds


def _record(benchmark: str, pretrainer: AimTSPretrainer, samples_per_sec: float, **extra) -> dict:
    """One ``BENCH_training.json`` record of a pre-training arm at ``samples_per_sec``."""
    config = pretrainer.config
    fit_seconds = POOL_SHAPE[0] * PRETRAIN_EPOCHS / samples_per_sec
    return {
        "benchmark": benchmark,
        "pool_shape": list(POOL_SHAPE),
        "compute_dtype": config.compute_dtype,
        "n_workers": config.n_workers,
        "n_producers": config.n_producers,
        "prefetch_depth": config.prefetch_depth,
        "augment_batched": config.augment_batched,
        "epochs": PRETRAIN_EPOCHS,
        "fit_seconds": fit_seconds,
        "epoch_wallclock_seconds": fit_seconds / PRETRAIN_EPOCHS,
        "samples_per_sec": samples_per_sec,
        "final_loss": pretrainer.history.total_loss[-1],
        **extra,
        **_machine(),
    }


def _run_pretrain_benchmark(benchmark_name: str, **config_overrides) -> None:
    """Time one fit of a fresh pre-trainer on the shared pool and append its record."""
    pretrainer = AimTSPretrainer(_pretrain_config(**config_overrides))
    samples_per_sec = _timed_fit(pretrainer, np.random.default_rng(3407).normal(size=POOL_SHAPE))
    record = _record(benchmark_name, pretrainer, samples_per_sec)
    append_bench_record(record)
    print(
        f"\n[perf] {benchmark_name} {POOL_SHAPE} x{PRETRAIN_EPOCHS} epochs "
        f"({record['compute_dtype']}): "
        f"{record['fit_seconds']:.2f}s total, {record['epoch_wallclock_seconds']:.2f}s/epoch, "
        f"{samples_per_sec:.1f} samples/s"
    )


def test_pretrain_epoch_throughput():
    """2-epoch engine-driven pre-train: record epoch wall-clock + samples/s."""
    _run_pretrain_benchmark("engine_pretrain")


def test_pretrain_epoch_throughput_float32():
    """The same pre-train with the float32 compute core (PR 4 fast path)."""
    _run_pretrain_benchmark("engine_pretrain_float32", compute_dtype="float32")


def test_pretrain_parallel_throughput():
    """Batched kernels, sharded workers, pipelined producers.

    Four float32 arms: per-sample augmentations (sequential), batched
    augmentations (sequential), batched augmentations with ``n_workers=2``,
    and the pipelined path (``n_producers=2`` rendering + augmenting ahead of
    the sequential gradient step).  Each arm keeps one pre-trainer, and with
    it its warm pool, for the whole test: after one warmup fit per arm, the
    arms are timed interleaved, ``PARALLEL_REPS`` two-epoch fits each, and
    every record and gate reads an arm's median.  The batched sequential arm
    must never regress; the sharded arm is gated at ``PARALLEL_GATE`` x the
    per-sample arm and the pipelined arm at ``PIPELINE_GATE`` x the batched
    arm — each gate arms only when the machine has a usable core per process
    (see the constants above), and the arm is recorded ungated otherwise.
    """
    pool = np.random.default_rng(3407).normal(size=POOL_SHAPE)
    arms = {
        "pretrain_f32_per_sample_aug": dict(augment_batched=False),
        "pretrain_f32_batched_aug": {},
        "pretrain_f32_batched_aug_2workers": dict(n_workers=PARALLEL_WORKERS),
        "pretrain_f32_pipelined_2producers": dict(
            n_producers=PIPELINE_PRODUCERS, prefetch_depth=PIPELINE_PREFETCH
        ),
    }
    pretrainers = {
        name: AimTSPretrainer(_pretrain_config(compute_dtype="float32", **knobs))
        for name, knobs in arms.items()
    }
    rates: dict[str, list[float]] = {name: [] for name in arms}
    warmup_seconds = {}
    try:
        for name, pretrainer in pretrainers.items():
            # warmup: pool spawn, imports, first touch
            start = time.perf_counter()
            pretrainer.fit(pool, epochs=1)
            warmup_seconds[name] = time.perf_counter() - start
        for _ in range(PARALLEL_REPS):
            for name, pretrainer in pretrainers.items():
                rates[name].append(_timed_fit(pretrainer, pool))
    finally:
        for pretrainer in pretrainers.values():
            pretrainer.shutdown_workers()

    medians = {}
    for name, pretrainer in pretrainers.items():
        q1, median, q3 = np.percentile(rates[name], [25, 50, 75])
        medians[name] = median
        extra = {}
        if pretrainer.config.n_producers >= 1:
            # occupancy, consumer stall, produce time and pickled (oversize)
            # arrays of the last timed fit (pipeline stats reset per fit)
            summary = pretrainer.trainer.pipeline_summary()
            extra = {
                key: summary[key]
                for key in (
                    "producer_occupancy",
                    "consumer_stall_seconds",
                    "produce_seconds",
                    "oversize_arrays",
                )
            }
        append_bench_record(
            _record(
                name,
                pretrainer,
                median,
                reps=PARALLEL_REPS,
                samples_per_sec_q1=q1,
                samples_per_sec_q3=q3,
                warmup_seconds=warmup_seconds[name],
                **extra,
            )
        )
        print(
            f"\n[perf] {name} {POOL_SHAPE} x{PRETRAIN_EPOCHS} epochs, {PARALLEL_REPS} reps: "
            f"median {median:.1f} samples/s [{q1:.1f}, {q3:.1f}]"
        )
    per_sample, batched, parallel, pipelined = medians.values()
    print(
        f"[perf] parallel arms (medians): per-sample {per_sample:.0f} -> batched "
        f"{batched:.0f} -> {PARALLEL_WORKERS} workers {parallel:.0f} -> "
        f"{PIPELINE_PRODUCERS} producers {pipelined:.0f} samples/s "
        f"(usable cores: {_usable_cores()}, gates: {PARALLEL_GATE}/{PIPELINE_GATE})"
    )
    assert batched >= 0.95 * per_sample, (
        f"batched augmentations regressed the sequential path: "
        f"{batched:.0f} vs {per_sample:.0f} samples/s"
    )
    if PARALLEL_GATE is not None:
        assert parallel >= PARALLEL_GATE * per_sample, (
            f"n_workers={PARALLEL_WORKERS} reached only "
            f"{parallel / per_sample:.2f}x the per-sample float32 arm "
            f"({parallel:.0f} vs {per_sample:.0f} samples/s)"
        )
    if PIPELINE_GATE is not None:
        assert pipelined >= PIPELINE_GATE * batched, (
            f"n_producers={PIPELINE_PRODUCERS} reached only "
            f"{pipelined / batched:.2f}x the PR 5 batched sequential arm "
            f"({pipelined:.0f} vs {batched:.0f} samples/s)"
        )


# --------------------------------------------------------------------------- #
# The im2col/col2im conv arithmetic of the arena gate's reference arm
# --------------------------------------------------------------------------- #
#: memoized flat scatter indices of :func:`_legacy_col2im_1d`, as the old
#: kernel kept them
_LEGACY_SCATTER_INDEX: dict[tuple, np.ndarray] = {}


def _legacy_im2col_1d(x, kernel, stride, dilation, out=None):
    """``(B, C, T_padded)`` → ``(B, out_t, C*kernel)`` patches through a
    strided ``sliding_window_view`` transpose."""
    batch, channels, length = x.shape
    span = (kernel - 1) * dilation + 1
    out_t = (length - span) // stride + 1
    windows = np.lib.stride_tricks.sliding_window_view(x, span, axis=2)[:, :, ::stride, ::dilation]
    if out is not None:
        np.copyto(out.reshape(batch, out_t, channels, kernel), windows.transpose(0, 2, 1, 3))
        return out
    return np.ascontiguousarray(windows.transpose(0, 2, 1, 3).reshape(batch, out_t, channels * kernel))


def _legacy_col2im_1d(cols, x_shape, kernel, stride, dilation):
    """Scatter ``(B, out_t, C*kernel)`` gradients back to ``(B, C, T_padded)``
    with one float64 ``np.bincount`` over all taps, for either dtype (float32
    columns are promoted and the result cast back)."""
    batch, channels, length = x_shape
    out_t = (length - (kernel - 1) * dilation - 1) // stride + 1
    key = (*x_shape, kernel, stride, dilation)
    index = _LEGACY_SCATTER_INDEX.get(key)
    if index is None:
        positions = (
            np.arange(kernel)[:, None] * dilation + np.arange(out_t)[None, :] * stride
        ).reshape(-1)
        rows = np.arange(batch * channels)[:, None] * length
        index = _LEGACY_SCATTER_INDEX[key] = (rows + positions[None, :]).ravel()
    taps = cols.astype(np.float64).reshape(batch, out_t, channels, kernel)
    values = taps.transpose(0, 2, 3, 1).reshape(-1)
    flat = np.bincount(index, weights=values, minlength=batch * channels * length)
    return flat.reshape(x_shape).astype(cols.dtype)


def _legacy_col2im_2d(cols, x_shape, kernel, stride):
    """``_col2im_2d`` on float64-promoted columns, cast back."""
    return _col2im_2d(cols.astype(np.float64), x_shape, kernel, stride).astype(cols.dtype)


def _legacy_conv1d_forward(
    x, weight, bias=None, *, stride=1, padding=0, dilation=1, relu=False, requires_grad=False
):
    """The im2col conv1d forward: pad, patch matrix, one GEMM; returns
    ``(out, cols, mask)``."""
    arena = active_arena()
    pool = None if arena is None else arena.buffer if requires_grad else arena.scratch
    x_padded = _pad(x, (padding,), "conv1d", arena)
    batch, channels, length = x_padded.shape
    kernel = weight.shape[2]
    out_t = (length - (kernel - 1) * dilation - 1) // stride + 1
    out = None if pool is None else pool("conv1d.cols", (batch, out_t, channels * kernel), x.dtype)
    cols = _legacy_im2col_1d(x_padded, kernel, stride, dilation, out=out)
    out, mask = _project(cols, weight, bias, relu, arena, pool, "conv1d")
    return out, cols, mask


def _legacy_conv1d(x, weight, bias=None, *, stride=1, padding=0, dilation=1, relu=False):
    """The im2col/col2im conv1d autograd node."""
    out_channels, in_channels, kernel = weight.shape
    parents = (x, weight) if bias is None else (x, weight, bias)
    requires_grad = is_grad_enabled() and any(p.requires_grad for p in parents)
    out, cols, mask = _legacy_conv1d_forward(
        x.data, weight.data, None if bias is None else bias.data, stride=stride,
        padding=padding, dilation=dilation, relu=relu, requires_grad=requires_grad,
    )
    if not requires_grad:
        return Tensor(out)
    batch, out_t = cols.shape[:2]
    w_flat = weight.data.reshape(out_channels, -1)  # (C_out, C_in*K)
    x_padded_shape = (batch, in_channels, x.shape[2] + 2 * padding)

    def backward(grad):
        pool = active_arena()
        if mask is not None:
            mask_t = mask.transpose(0, 2, 1)
            if pool is not None and grad.shape == mask_t.shape:
                grad = np.multiply(
                    grad, mask_t,
                    out=pool.scratch("conv1d.gmask", grad.shape, grad.dtype,
                                     like=result_template(grad.shape, grad, mask_t)),
                )
            else:
                grad = grad * mask_t
        grad_out = grad.transpose(0, 2, 1)  # (B, out_t, C_out)
        if weight.requires_grad:
            rows = grad_out.shape[0] * grad_out.shape[1]
            cols_flat = cols.reshape(rows, -1)
            if pool is not None:
                flat_grad = pool.scratch("conv1d.gflat", (rows, out_channels), grad_out.dtype)
                np.copyto(flat_grad.reshape(grad_out.shape), grad_out)
                grad_w = np.matmul(
                    flat_grad.T, cols_flat,
                    out=pool.scratch("conv1d.gw", (out_channels, cols_flat.shape[1]), grad_out.dtype),
                )
            else:
                grad_w = grad_out.reshape(rows, out_channels).T @ cols_flat
            weight._accumulate(grad_w.reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad_out.sum(axis=(0, 1)))
        if x.requires_grad:
            if pool is not None and grad_out.dtype == w_flat.dtype:
                grad_cols = np.matmul(
                    grad_out, w_flat,
                    out=pool.scratch("conv1d.gcols", (batch, out_t, in_channels * kernel), grad_out.dtype),
                )
            else:
                grad_cols = grad_out @ w_flat  # (B, out_t, C_in*K)
            grad_padded = _legacy_col2im_1d(grad_cols, x_padded_shape, kernel, stride, dilation)
            if padding:
                grad_padded = grad_padded[:, :, padding:-padding]
            x._accumulate(grad_padded)

    return Tensor._make(out, parents, backward)


@contextlib.contextmanager
def _pr8_kernels():
    """Temporarily restore PR 8's conv scratch arithmetic.

    The reference arm of the PR 10 gate must reproduce what the code shipped
    before the step arena: the im2col/col2im conv1d node copied into this
    module (a strided ``sliding_window_view`` gather, and a col2im that
    promoted float32 columns to float64 for the bincount scatter and cast
    the result back), and the same promotion in conv2d's ``_col2im_2d``.
    ``F.conv1d`` and ``F._col2im_2d`` are patched for the duration of the
    reference arm's fits (``Conv1d`` and ``conv2d`` look them up at call
    time); every ``repro`` name this shim reads or replaces is bound when
    the module is imported, so a rename fails the collection.
    """
    F.conv1d = _legacy_conv1d
    F._col2im_2d = _legacy_col2im_2d
    try:
        yield
    finally:
        F.conv1d = _conv1d
        F._col2im_2d = _col2im_2d


def test_pretrain_arena_throughput():
    """PR 10: the pooled-arena fused path vs a faithful PR 8-style reference.

    Two float32 arms on the shared pool, warmed to steady state and timed
    interleaved (best of ``ARENA_REPS`` two-epoch fits each): the default
    path — step arena on, fused conv+relu / add+relu / BN graphs, per-tap
    conv scratch kernels, phase profiler on — against a within-run
    reproduction of the PR 8 batched arm (``step_arena=False``, every
    ``fused`` knob off, PR 8 im2col/col2im arithmetic via
    :func:`_pr8_kernels`).  The default arm is gated at ``ARENA_GATE`` x the
    reference and its record carries the ``profile_<phase>_seconds`` and
    ``arena_*`` counters of the final timed fit.
    """
    pool = np.random.default_rng(3407).normal(size=POOL_SHAPE)

    def build(step_arena: bool, fused: bool, profile: bool = False):
        pretrainer = AimTSPretrainer(_pretrain_config(compute_dtype="float32", step_arena=step_arena))
        pretrainer.profile = profile
        if not fused:
            for encoder in (pretrainer.ts_encoder, pretrainer.image_encoder):
                for module in encoder.modules():
                    if hasattr(module, "fused"):
                        module.fused = False
        return pretrainer

    reference = build(step_arena=False, fused=False)
    pooled = build(step_arena=True, fused=True, profile=True)
    with _pr8_kernels():
        reference.fit(pool, epochs=1)  # warmup: render cache + first-touch costs
    pooled.fit(pool, epochs=1)

    ref_best = pooled_best = 0.0
    for _ in range(ARENA_REPS):
        with _pr8_kernels():
            ref_best = max(ref_best, _timed_fit(reference, pool))
        pooled_best = max(pooled_best, _timed_fit(pooled, pool))

    # profile/arena counters of the final timed fit (the trainer is rebuilt
    # per fit, so these reflect exactly one two-epoch steady-state run)
    profile = {
        key: value
        for key, value in pooled.trainer.pipeline_summary().items()
        if key.startswith("profile_")
    }
    arena = {f"arena_{k}": v for k, v in pooled.trainer.arena_stats().items()}
    append_bench_record(
        _record("pretrain_f32_pr8_reference", reference, ref_best, reps=ARENA_REPS)
    )
    append_bench_record(
        _record(
            "pretrain_f32_arena_fused", pooled, pooled_best, reps=ARENA_REPS, **profile, **arena
        )
    )
    phases = ", ".join(f"{k[8:-8]} {v:.2f}s" for k, v in sorted(profile.items()))
    print(
        f"\n[perf] PR10 arena gate: pr8-style {ref_best:.0f} -> arena+fused "
        f"{pooled_best:.0f} samples/s ({pooled_best / ref_best:.2f}x, "
        f"gate {ARENA_GATE}x) | arena misses {arena.get('arena_misses')}, "
        f"peak {arena.get('arena_peak_bytes', 0) / 1e6:.1f}MB | {phases}"
    )
    assert pooled_best >= ARENA_GATE * ref_best, (
        f"arena+fused path reached only {pooled_best / ref_best:.2f}x the "
        f"PR 8-style reference ({pooled_best:.0f} vs {ref_best:.0f} samples/s)"
    )


def test_finetune_epoch_throughput():
    """Engine-driven fine-tune: record epoch wall-clock + samples/s."""
    dataset = make_dataset(
        "perf_ecg",
        "ecg",
        n_classes=2,
        n_train=FINETUNE_TRAIN,
        n_test=16,
        length=96,
        n_variables=1,
        seed=3407,
    )
    encoder = TSEncoder(
        hidden_channels=8, repr_dim=16, depth=1, channel_independent=True, rng=3407
    )
    finetuner = FineTuner(
        encoder,
        dataset.n_classes,
        FineTuneConfig(epochs=FINETUNE_EPOCHS, batch_size=8, seed=3407),
    )

    start = time.perf_counter()
    curve = finetuner.fit(dataset.train)
    fit_seconds = time.perf_counter() - start

    epochs_run = len(curve)
    assert epochs_run == FINETUNE_EPOCHS
    assert all(np.isfinite(v) for v in curve)
    samples_per_sec = FINETUNE_TRAIN * epochs_run / fit_seconds

    record = {
        "benchmark": "engine_finetune",
        "n_train": FINETUNE_TRAIN,
        "series_length": 96,
        "epochs": epochs_run,
        "fit_seconds": fit_seconds,
        "epoch_wallclock_seconds": fit_seconds / epochs_run,
        "samples_per_sec": samples_per_sec,
        "final_loss": curve[-1],
        **_machine(),
    }
    append_bench_record(record)
    print(
        f"\n[perf] engine finetune ({FINETUNE_TRAIN} samples x{epochs_run} epochs): "
        f"{fit_seconds:.2f}s total, {fit_seconds / epochs_run:.3f}s/epoch, "
        f"{samples_per_sec:.1f} samples/s"
    )
