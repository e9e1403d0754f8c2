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


def append_bench_record(record: dict) -> None:
    """Append one measurement record to ``BENCH_training.json``."""
    _append(BENCH_PATH, record)


def _run_pretrain_benchmark(
    benchmark_name: str, *, warmup: bool = False, **config_overrides
) -> float:
    """Fit a fresh pre-trainer on the shared pool and append one record.

    ``warmup`` runs one untimed single-epoch fit first — required for the
    parallel arms (worker spawn + module import is a one-off cost the
    persistent pool amortises away) and applied to every arm being compared
    against them so all sides are measured at steady state.  Returns the
    measured samples/s.
    """
    config = AimTSConfig(
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
        **config_overrides,
    )
    pool = np.random.default_rng(3407).normal(size=POOL_SHAPE)
    pretrainer = AimTSPretrainer(config)
    warmup_seconds = 0.0
    if warmup:
        start = time.perf_counter()
        pretrainer.fit(pool, epochs=1)
        warmup_seconds = time.perf_counter() - start

    epochs_before = len(pretrainer.history.total_loss)
    start = time.perf_counter()
    history = pretrainer.fit(pool, epochs=PRETRAIN_EPOCHS)
    fit_seconds = time.perf_counter() - start
    pretrainer.shutdown_workers()

    # the timed fit must have trained exactly the epochs the samples/s
    # denominator assumes (the warmup fit shares the history, hence the delta)
    epochs_run = len(history.total_loss) - epochs_before
    assert epochs_run == PRETRAIN_EPOCHS
    assert all(np.isfinite(v) for v in history.total_loss)
    samples_per_sec = POOL_SHAPE[0] * epochs_run / fit_seconds

    record = {
        "benchmark": benchmark_name,
        "pool_shape": list(POOL_SHAPE),
        "compute_dtype": config.compute_dtype,
        "n_workers": config.n_workers,
        "n_producers": config.n_producers,
        "prefetch_depth": config.prefetch_depth,
        "augment_batched": config.augment_batched,
        "epochs": epochs_run,
        "fit_seconds": fit_seconds,
        "epoch_wallclock_seconds": fit_seconds / epochs_run,
        "samples_per_sec": samples_per_sec,
        "final_loss": history.total_loss[-1],
        **_machine(),
    }
    if warmup:
        record["warmup_seconds"] = warmup_seconds
    extra = ""
    if config.n_producers >= 1:
        # producer occupancy + consumer stall time of the timed fit only
        # (pipeline_stats live on the fit's trainer, reset per fit)
        summary = pretrainer.trainer.pipeline_summary()
        record["producer_occupancy"] = summary["producer_occupancy"]
        record["consumer_stall_seconds"] = summary["consumer_stall_seconds"]
        record["produce_seconds"] = summary["produce_seconds"]
        record["oversize_arrays"] = summary["oversize_arrays"]
        extra = (
            f", occupancy {summary['producer_occupancy']:.2f}, "
            f"stall {summary['consumer_stall_seconds']:.2f}s"
        )
    append_bench_record(record)
    print(
        f"\n[perf] {benchmark_name} {POOL_SHAPE} x{epochs_run} epochs "
        f"({config.compute_dtype}, workers={config.n_workers}, "
        f"producers={config.n_producers}): "
        f"{fit_seconds:.2f}s total, {fit_seconds / epochs_run:.2f}s/epoch, "
        f"{samples_per_sec:.1f} samples/s{extra}"
    )
    return samples_per_sec


def test_pretrain_epoch_throughput():
    """2-epoch engine-driven pre-train: record epoch wall-clock + samples/s."""
    _run_pretrain_benchmark("engine_pretrain")


def test_pretrain_epoch_throughput_float32():
    """The same pre-train with the float32 compute core (PR 4 fast path)."""
    _run_pretrain_benchmark("engine_pretrain_float32", compute_dtype="float32")


def test_pretrain_parallel_throughput():
    """PR 5 + PR 8: batched kernels, sharded workers, pipelined producers.

    Four arms, all float32 and warmed up to steady state: the PR 4 path
    (per-sample augmentations, sequential), the batched-augmentation
    sequential path, batched augmentations with ``n_workers=2`` (PR 5), and
    the pipelined path (``n_producers=2`` rendering + augmenting ahead of the
    sequential gradient step, PR 8).  The batched sequential arm must never
    regress; the sharded arm is gated at ``PARALLEL_GATE`` x the PR 4 arm and
    the pipelined arm at ``PIPELINE_GATE`` x the batched arm — each gate arms
    only when the machine has a usable core per process (see the constants
    above), and the arm is recorded ungated otherwise.
    """
    pr4_style = _run_pretrain_benchmark(
        "pretrain_f32_per_sample_aug",
        warmup=True,
        compute_dtype="float32",
        augment_batched=False,
    )
    batched = _run_pretrain_benchmark(
        "pretrain_f32_batched_aug",
        warmup=True,
        compute_dtype="float32",
    )
    parallel = _run_pretrain_benchmark(
        "pretrain_f32_batched_aug_2workers",
        warmup=True,
        compute_dtype="float32",
        n_workers=PARALLEL_WORKERS,
    )
    pipelined = _run_pretrain_benchmark(
        "pretrain_f32_pipelined_2producers",
        warmup=True,
        compute_dtype="float32",
        n_producers=PIPELINE_PRODUCERS,
        prefetch_depth=PIPELINE_PREFETCH,
    )
    print(
        f"[perf] PR5/PR8 trajectory: per-sample {pr4_style:.0f} -> batched "
        f"{batched:.0f} -> {PARALLEL_WORKERS} workers {parallel:.0f} -> "
        f"{PIPELINE_PRODUCERS} producers {pipelined:.0f} samples/s "
        f"(usable cores: {_usable_cores()}, gates: {PARALLEL_GATE}/{PIPELINE_GATE})"
    )
    assert batched >= 0.95 * pr4_style, (
        f"batched augmentations regressed the sequential path: "
        f"{batched:.0f} vs {pr4_style:.0f} samples/s"
    )
    if PARALLEL_GATE is not None:
        assert parallel >= PARALLEL_GATE * pr4_style, (
            f"n_workers={PARALLEL_WORKERS} reached only "
            f"{parallel / pr4_style:.2f}x the PR 4 float32 baseline "
            f"({parallel:.0f} vs {pr4_style:.0f} samples/s)"
        )
    if PIPELINE_GATE is not None:
        assert pipelined >= PIPELINE_GATE * batched, (
            f"n_producers={PIPELINE_PRODUCERS} reached only "
            f"{pipelined / batched:.2f}x the PR 5 batched sequential arm "
            f"({pipelined:.0f} vs {batched:.0f} samples/s)"
        )


@contextlib.contextmanager
def _pr8_kernels():
    """Temporarily restore PR 8's conv scratch arithmetic.

    The reference arm of the PR 10 gate must reproduce what the code shipped
    before PR 10: ``_col2im_*`` (``repro.nn.functional``) promoted float32
    columns to float64 for the bincount scatter and cast the result back,
    and ``_im2col_1d`` (``repro.nn.inference``, home of the conv forward)
    gathered through a strided ``sliding_window_view`` transpose.  Both are
    patched at module level for the duration of the reference arm's fits
    (the internal call sites resolve the module globals at call time).
    """
    import repro.nn.functional as F
    import repro.nn.inference as NI

    col2im_1d, col2im_2d, im2col_1d = F._col2im_1d, F._col2im_2d, NI._im2col_1d

    def legacy_col2im_1d(cols, x_shape, kernel, stride, dilation):
        return col2im_1d(
            cols.astype(np.float64), x_shape, kernel, stride, dilation
        ).astype(cols.dtype)

    def legacy_col2im_2d(cols, x_shape, kernel, stride):
        return col2im_2d(cols.astype(np.float64), x_shape, kernel, stride).astype(
            cols.dtype
        )

    def legacy_im2col_1d(x, kernel, stride, dilation, out=None):
        batch, channels, length = x.shape
        span = (kernel - 1) * dilation + 1
        out_t = (length - span) // stride + 1
        windows = np.lib.stride_tricks.sliding_window_view(x, span, axis=2)[
            :, :, ::stride, ::dilation
        ]
        if out is not None:
            np.copyto(
                out.reshape(batch, out_t, channels, kernel),
                windows.transpose(0, 2, 1, 3),
            )
            return out
        return np.ascontiguousarray(
            windows.transpose(0, 2, 1, 3).reshape(batch, out_t, channels * kernel)
        )

    F._col2im_1d = legacy_col2im_1d
    F._col2im_2d = legacy_col2im_2d
    NI._im2col_1d = legacy_im2col_1d
    try:
        yield
    finally:
        F._col2im_1d = col2im_1d
        F._col2im_2d = col2im_2d
        NI._im2col_1d = im2col_1d


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
        config = AimTSConfig(
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
            compute_dtype="float32",
            step_arena=step_arena,
        )
        pretrainer = AimTSPretrainer(config)
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

    def timed(pretrainer, shim: bool) -> float:
        before = len(pretrainer.history.total_loss)
        patch = _pr8_kernels() if shim else contextlib.nullcontext()
        with patch:
            start = time.perf_counter()
            history = pretrainer.fit(pool, epochs=PRETRAIN_EPOCHS)
            fit_seconds = time.perf_counter() - start
        assert len(history.total_loss) - before == PRETRAIN_EPOCHS
        return POOL_SHAPE[0] * PRETRAIN_EPOCHS / fit_seconds

    ref_best = pooled_best = 0.0
    for _ in range(ARENA_REPS):
        ref_best = max(ref_best, timed(reference, shim=True))
        pooled_best = max(pooled_best, timed(pooled, shim=False))

    # profile/arena counters of the final timed fit (the trainer is rebuilt
    # per fit, so these reflect exactly one two-epoch steady-state run)
    profile = {
        key: value
        for key, value in pooled.trainer.pipeline_summary().items()
        if key.startswith("profile_")
    }
    arena = {f"arena_{k}": v for k, v in pooled.trainer.arena_stats().items()}
    shared = {
        "pool_shape": list(POOL_SHAPE),
        "compute_dtype": "float32",
        "epochs": PRETRAIN_EPOCHS,
        "reps": ARENA_REPS,
        **_machine(),
    }
    append_bench_record(
        {
            "benchmark": "pretrain_f32_pr8_reference",
            "samples_per_sec": ref_best,
            **shared,
        }
    )
    append_bench_record(
        {
            "benchmark": "pretrain_f32_arena_fused",
            "samples_per_sec": pooled_best,
            **profile,
            **arena,
            **shared,
        }
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
