"""Performance benchmarks for the no-grad inference path (perf marker).

Not part of any paper table — this module tracks the serving-side trajectory:
``encode`` / ``predict`` streaming micro-batches through ``Module.forward``
under ``no_grad()`` with the estimator's ``StepArena`` (reusable im2col and
activation buffers, float32 compute) versus the reference arm, a direct
``no_grad()`` eval forward with no arena active.  The record keys keep their
historical names: ``fused_*`` is the estimator path, ``unfused_*`` the
reference arm (before the two forwards were merged, ``unfused`` was the
same no-arena autograd forward and ``fused`` a separate raw-array
interpreter).

Every run appends to ``BENCH_inference.json`` at the repo root.  Excluded
from tier-1 by the ``perf`` marker (see ``pytest.ini``); run with::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_inference.py -m perf -s
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np
import pytest

from benchmarks.conftest import append_bench_record as _append
from benchmarks.conftest import machine_info
from repro.core.config import AimTSConfig, FineTuneConfig
from repro.core.finetuner import FineTuner
from repro.core.pretrainer import AimTSPretrainer
from repro.data.archives import make_dataset
from repro.data.loaders import z_normalize
from repro.encoders import TSEncoder

pytestmark = pytest.mark.perf

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_inference.json"

#: serving batch shape (samples, variables, length)
BATCH_SHAPE = (256, 3, 96)
REPEATS = 5

#: acceptance gate for the float32 encode speedup; relaxed on shared CI
#: runners, whose BLAS/thread configuration shifts relative gains by more
#: than the local headroom
SPEEDUP_GATE = 1.5 if os.environ.get("CI") else 2.0

#: acceptance gate for the ``predict`` path at the PR 5 serving batch
#: default (256).  Profiling showed the classifier head is negligible
#: (~0.1 ms vs ~80 ms encoder on the benchmark shape), so the gap to the
#: reference arm is all encoder: with the arena, throughput is flat in the
#: micro-batch size (buffers are reused either way) while the allocating
#: forward degrades as batches grow — measured ~1.4-1.6x at the 256 default
#: vs the 1.09x recorded at 64 in the PR 4 era.  The gate leaves headroom
#: for runner noise.
PREDICT_GATE = 1.05 if os.environ.get("CI") else 1.2


def append_bench_record(record: dict) -> None:
    """Append one measurement record to ``BENCH_inference.json``."""
    _append(BENCH_PATH, record)


def best_of(fn, repeats: int = REPEATS) -> float:
    """Best wall-clock of ``repeats`` runs after one warm-up call."""
    fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def unpooled(encoder, X: np.ndarray, head=None) -> np.ndarray:
    """The reference arm: one direct ``no_grad()`` eval forward, no arena active."""
    out = encoder.infer(X)
    return out if head is None else head.infer(out)


def _make_pretrainer(**overrides) -> AimTSPretrainer:
    config = AimTSConfig(
        repr_dim=32,
        proj_dim=16,
        hidden_channels=16,
        depth=2,
        panel_size=24,
        series_length=BATCH_SHAPE[2],
        n_variables=BATCH_SHAPE[1],
        batch_size=16,
        seed=3407,
        **overrides,
    )
    return AimTSPretrainer(config)


def test_encode_fused_throughput():
    """``encode`` in float32 vs the float64 reference arm on one batch.

    Acceptance gate of PR 4: the estimator path (float32, reusable arena
    buffers) must be at least 2x the float64 no-arena ``no_grad()`` eval
    forward on a ``(256, 3, 96)`` batch.
    """
    X = np.random.default_rng(3407).normal(size=BATCH_SHAPE)
    batch = BATCH_SHAPE[0]
    reference = _make_pretrainer()
    fast = _make_pretrainer(compute_dtype="float32")

    t_unfused64 = best_of(lambda: unpooled(reference.ts_encoder, X))
    t_fused64 = best_of(lambda: reference.encode(X, batch_size=batch))
    t_fused32 = best_of(lambda: fast.encode(X, batch_size=batch))
    speedup = t_unfused64 / t_fused32

    # pooling changes no bits: the arena and no-arena forwards agree exactly
    assert np.array_equal(reference.encode(X, batch_size=batch), unpooled(reference.ts_encoder, X))

    record = {
        "benchmark": "encode_fused",
        "batch_shape": list(BATCH_SHAPE),
        "unfused_float64_seconds": t_unfused64,
        "fused_float64_seconds": t_fused64,
        "fused_float32_seconds": t_fused32,
        "unfused_float64_samples_per_sec": batch / t_unfused64,
        "fused_float64_samples_per_sec": batch / t_fused64,
        "fused_float32_samples_per_sec": batch / t_fused32,
        "fused_float32_speedup": speedup,
        "workspace_bytes": fast._workspace.nbytes(),
        **machine_info(),
    }
    append_bench_record(record)  # record first, so a failed gate still leaves a data point
    print(
        f"\n[perf] encode {BATCH_SHAPE}: unfused f64 {t_unfused64 * 1000:.1f}ms, "
        f"fused f64 {t_fused64 * 1000:.1f}ms, fused f32 {t_fused32 * 1000:.1f}ms "
        f"({speedup:.2f}x, workspace {fast._workspace.nbytes() / 1e6:.1f}MB)"
    )
    assert speedup >= SPEEDUP_GATE, (
        f"float32 encode only {speedup:.2f}x the float64 no-arena forward"
    )


def test_predict_serving_throughput():
    """``predict`` at the 256 serving default vs the no-arena reference arm.

    PR 5 gate: the old ``batch_size=64`` default under-filled the buffers
    (speedup ~1.09x); the raised default must recover >= ``PREDICT_GATE``
    against the no-arena ``no_grad()`` eval forward of the same modules.
    The legacy 64-batch timing is recorded alongside so the trajectory shows
    the default change itself.
    """
    from repro.api.estimator import DEFAULT_SERVING_BATCH_SIZE

    dataset = make_dataset(
        "perf_serving",
        "ecg",
        n_classes=2,
        n_train=64,
        n_test=BATCH_SHAPE[0],
        length=BATCH_SHAPE[2],
        n_variables=BATCH_SHAPE[1],
        seed=3407,
    )
    encoder = TSEncoder(hidden_channels=16, repr_dim=32, depth=2, rng=3407)
    finetuner = FineTuner(
        encoder, dataset.n_classes, FineTuneConfig(epochs=2, batch_size=8, seed=3407)
    )
    finetuner.fit(dataset.train)
    X = dataset.test.X

    t_fused = best_of(lambda: finetuner.predict_logits(X))  # default batch size
    t_fused_64 = best_of(lambda: finetuner.predict_logits(X, batch_size=64))
    t_unfused = best_of(lambda: unpooled(finetuner.encoder, z_normalize(X), finetuner.classifier))
    speedup = t_unfused / t_fused
    assert np.array_equal(
        finetuner.predict_logits(X),
        unpooled(finetuner.encoder, z_normalize(X), finetuner.classifier),
    )

    record = {
        "benchmark": "predict_fused",
        "batch_shape": list(X.shape),
        "serving_batch_size": DEFAULT_SERVING_BATCH_SIZE,
        "unfused_seconds": t_unfused,
        "fused_seconds": t_fused,
        "fused_seconds_batch64": t_fused_64,
        "fused_samples_per_sec": X.shape[0] / t_fused,
        "unfused_samples_per_sec": X.shape[0] / t_unfused,
        "fused_speedup": speedup,
        **machine_info(),
    }
    append_bench_record(record)  # record first, so a failed gate still leaves a data point
    print(
        f"\n[perf] predict {X.shape}: unfused {t_unfused * 1000:.1f}ms, "
        f"fused@{DEFAULT_SERVING_BATCH_SIZE} {t_fused * 1000:.1f}ms "
        f"({speedup:.2f}x), fused@64 {t_fused_64 * 1000:.1f}ms"
    )
    assert speedup >= PREDICT_GATE, (
        f"predict only {speedup:.2f}x the no-arena forward at the "
        f"{DEFAULT_SERVING_BATCH_SIZE} serving default"
    )
