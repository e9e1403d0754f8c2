"""Performance benchmarks for the serving front door (perf + serving markers).

Not part of any paper table — this module tracks the ISSUE 6 serving
trajectory: open-loop concurrent single-sample traffic through the
micro-batching :class:`repro.serving.ModelServer` versus serial one-at-a-time
fused ``predict`` on the same model.  Every run appends sustained requests/s
and p50/p99 open-loop latency to ``BENCH_serving.json`` at the repo root.

The >= 3x throughput gate arms only when the runner has at least two usable
cores (``os.sched_getaffinity``): with one core the worker threads cannot
overlap BLAS work with batching, so the numbers are recorded for the
trajectory but not gated.  Excluded from tier-1 by the ``perf`` marker; run
with::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_serving.py -m perf -s
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from benchmarks.conftest import append_bench_record as _append
from benchmarks.conftest import machine_info
from repro.api import load_estimator, make_estimator
from repro.core.config import AimTSConfig, FineTuneConfig
from repro.data.archives import make_dataset
from repro.serving import ModelServer, run_open_loop, serial_baseline

pytestmark = [pytest.mark.perf, pytest.mark.serving]

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_serving.json"

#: single-sample request shape (variables, length)
SAMPLE_SHAPE = (3, 96)

#: open-loop offered load and duration per measured run
OFFERED_RPS = 200.0
DURATION_S = 2.0

#: acceptance gate: micro-batched serving vs serial one-at-a-time fused
#: predict.  Armed only with >= 2 usable cores — on one core the workers
#: can't overlap, so the run records the trajectory without gating.
SPEEDUP_GATE = 3.0


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def append_bench_record(record: dict) -> None:
    """Append one measurement record to ``BENCH_serving.json``."""
    _append(BENCH_PATH, record)


@pytest.fixture(scope="module")
def bundle_path(tmp_path_factory):
    """A fine-tuned benchmark-scale AimTS bundle on the serving shape."""
    from repro.utils.seeding import seed_everything

    seed_everything(3407)
    config = AimTSConfig(
        repr_dim=32,
        proj_dim=16,
        hidden_channels=16,
        depth=2,
        panel_size=24,
        series_length=SAMPLE_SHAPE[1],
        n_variables=SAMPLE_SHAPE[0],
        batch_size=16,
        epochs=1,
        seed=3407,
    )
    dataset = make_dataset(
        "serving_bench",
        "motion",
        n_classes=3,
        n_train=32,
        n_test=16,
        length=SAMPLE_SHAPE[1],
        n_variables=SAMPLE_SHAPE[0],
        seed=5,
    )
    model = make_estimator("aimts", config=config)
    model.pretrain(np.random.default_rng(0).normal(size=(32, *SAMPLE_SHAPE)))
    model.fine_tune(dataset, FineTuneConfig(epochs=1, batch_size=16, seed=3407))
    return model.save(tmp_path_factory.mktemp("serving_bench") / "model.npz")


@pytest.fixture(scope="module")
def request_samples():
    return list(np.random.default_rng(13).normal(size=(64, *SAMPLE_SHAPE)))


class TestServingThroughput:
    def test_microbatched_serving_vs_serial_predict(self, bundle_path, request_samples):
        cores = usable_cores()
        estimator = load_estimator(bundle_path, eval_mode=True)
        serial_rps = serial_baseline(
            lambda sample: estimator.predict(sample[None]), request_samples, duration_s=1.0
        )

        with ModelServer.from_bundle(
            bundle_path, max_batch=64, max_wait_ms=5.0, n_workers=min(4, max(2, cores))
        ) as server:
            # warmup: populate the replicas' workspaces before the measured window
            run_open_loop(
                server, request_samples, rate_rps=50.0, duration_s=0.5, op="predict"
            )
            report = run_open_loop(
                server,
                request_samples,
                rate_rps=OFFERED_RPS,
                duration_s=DURATION_S,
                op="predict",
            )
            stats = server.stats()

        speedup = report.achieved_rps / max(serial_rps, 1e-9)
        record = {
            "benchmark": "serving_open_loop_predict",
            "usable_cores": cores,
            "n_workers": server.n_workers,
            "max_batch": server.max_batch,
            "max_wait_ms": server.max_wait_ms,
            "serial_requests_per_sec": serial_rps,
            "mean_batch_size": stats["mean_batch_size"],
            "serving_speedup": speedup,
            **report.as_record(),
            **machine_info(),
        }
        append_bench_record(record)
        print(
            f"\nserving: {report.achieved_rps:,.1f} req/s sustained "
            f"(serial {serial_rps:,.1f} req/s, {speedup:.2f}x), "
            f"p50 {report.latency.p50_ms:.2f} ms, p99 {report.latency.p99_ms:.2f} ms, "
            f"mean batch {stats['mean_batch_size']:.1f}, cores {cores}"
        )

        assert report.n_errors == 0
        assert report.n_completed == report.n_requests
        if cores >= 2:
            assert speedup >= SPEEDUP_GATE, (
                f"micro-batched serving {report.achieved_rps:,.1f} req/s is only "
                f"{speedup:.2f}x the serial baseline {serial_rps:,.1f} req/s "
                f"(gate {SPEEDUP_GATE}x, cores={cores})"
            )

    def test_latency_percentiles_recorded_for_proba(self, bundle_path, request_samples):
        """p50/p99 for the probability op, always recorded (never gated)."""
        with ModelServer.from_bundle(
            bundle_path, max_batch=64, max_wait_ms=5.0, n_workers=min(4, usable_cores())
        ) as server:
            report = run_open_loop(
                server,
                request_samples,
                rate_rps=OFFERED_RPS / 2,
                duration_s=DURATION_S / 2,
                op="predict_proba",
            )
        record = {
            "benchmark": "serving_open_loop_predict_proba",
            "usable_cores": usable_cores(),
            **report.as_record(),
            **machine_info(),
        }
        append_bench_record(record)
        print(
            f"\nproba: {report.achieved_rps:,.1f} req/s, "
            f"p50 {report.latency.p50_ms:.2f} ms, p99 {report.latency.p99_ms:.2f} ms"
        )
        assert report.n_errors == 0
        assert report.latency.p99_ms > 0.0

    def test_overload_shedding_goodput_recorded(self, bundle_path, request_samples):
        """2x-overload run against a bounded queue: goodput + shed recorded.

        A tight ``max_pending`` admission bound under twice the sustainable
        offered rate must shed (fast-fail) rather than queue without bound;
        the retry policy in the load generator converts part of the shed
        into delayed goodput.  Recorded for the trajectory, gated only on
        sanity (all requests accounted for, no hard errors).
        """
        with ModelServer.from_bundle(
            bundle_path,
            max_batch=32,
            max_wait_ms=2.0,
            n_workers=min(2, usable_cores()),
            max_pending=64,
        ) as server:
            run_open_loop(  # warmup
                server, request_samples, rate_rps=50.0, duration_s=0.5, op="predict"
            )
            report = run_open_loop(
                server,
                request_samples,
                rate_rps=OFFERED_RPS * 2,
                duration_s=DURATION_S,
                op="predict",
                max_retries=2,
                retry_backoff_s=0.002,
            )
            stats = server.stats()
        record = {
            "benchmark": "serving_overload_shedding",
            "usable_cores": usable_cores(),
            "max_pending": server.max_pending,
            "server_shed_requests": stats.get("shed_requests", 0),
            **report.as_record(),
            **machine_info(),
        }
        append_bench_record(record)
        print(
            f"\noverload: goodput {report.goodput_rps:,.1f} req/s of "
            f"{report.offered_rps:,.1f} offered, shed {report.n_shed}, "
            f"retries {report.n_retries}, p99 {report.latency.p99_ms:.2f} ms"
        )
        assert report.n_errors == 0
        assert report.n_completed + report.n_shed == report.n_requests
        assert report.goodput_rps > 0.0
