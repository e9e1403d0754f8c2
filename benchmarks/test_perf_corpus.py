"""Performance benchmarks for the out-of-core corpus store (perf + corpus markers).

Not part of any paper table — this module tracks the scaling arm the
``repro.data.corpus`` subsystem exists for: pre-training over corpora that
are generated, stored and streamed from disk instead of materialised in RAM.
It measures

* corpus build: streaming ``build_synthetic_corpus`` samples/s to disk plus
  a full ``verify()`` checksum pass,
* streamed-vs-in-RAM parity: the same moderate pre-train once from an in-RAM
  pool and once from a multi-shard on-disk corpus — the streamed path must
  stay within ``STREAM_TOLERANCE`` of the in-RAM throughput,
* the 10^5-sample arm: a two-epoch pre-train over a corpus whose rendered
  image set does **not** fit the configured cache budget, recording
  samples/s, peak RSS (sampled from ``/proc/self/status``) and the render
  table's counters, and asserting the peak RSS stays far below what
  materialising the images would need,

and appends every run to ``BENCH_corpus.json`` at the repo root so successive
PRs can compare numbers on the same machine.

Excluded from tier-1 by the ``perf`` marker (see ``pytest.ini``); run with::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_corpus.py -m perf -s
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from benchmarks.conftest import append_bench_record as _append
from benchmarks.conftest import machine_info as _machine
from repro.core.config import AimTSConfig
from repro.core.pretrainer import AimTSPretrainer
from repro.data.corpus import build_synthetic_corpus

pytestmark = [pytest.mark.perf, pytest.mark.corpus]

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_corpus.json"

#: the big arm — 10^5 samples, the ROADMAP's first scaling decade
BIG_SAMPLES = 100_000
BIG_EPOCHS = 2
#: the equal-footing parity arm (small enough to double-run comfortably)
PARITY_SAMPLES = 4_096
PARITY_EPOCHS = 2
#: byte budget of the big arm's render table — far below its image set
CACHE_BUDGET = 64 * 1024 * 1024

#: streamed throughput must stay within this fraction of the in-RAM path;
#: shared CI runners get the same relaxation as the other perf gates
STREAM_TOLERANCE = 0.5 if os.environ.get("CI") else 0.6


def append_bench_record(record: dict) -> None:
    """Append one measurement record to ``BENCH_corpus.json``."""
    _append(BENCH_PATH, record)


def _vm_rss_bytes() -> int | None:
    """Current resident set size from ``/proc/self/status`` (None off-Linux)."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        return None
    return None


class RssSampler:
    """Background peak-RSS sampler.

    ``resource.getrusage`` reports the process-lifetime high-water mark,
    which earlier tests in the same process contaminate; sampling
    ``/proc/self/status`` instead measures the peak *during* the monitored
    region only.
    """

    def __init__(self, interval: float = 0.02):
        self.interval = interval
        self.peak = _vm_rss_bytes()
        self.available = self.peak is not None
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.is_set():
            rss = _vm_rss_bytes()
            if rss is not None and rss > self.peak:
                self.peak = rss
            self._stop.wait(self.interval)

    def __enter__(self) -> "RssSampler":
        self.baseline = _vm_rss_bytes()
        if self.available:
            self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        if self.available:
            self._stop.set()
            self._thread.join()

    @property
    def peak_mb(self) -> float | None:
        return None if not self.available else self.peak / 1e6

    @property
    def delta_mb(self) -> float | None:
        return None if not self.available else (self.peak - self.baseline) / 1e6


def _pretrain_config(**overrides) -> AimTSConfig:
    """The corpus-benchmark pre-train config (series-image objective only).

    The series-image loss is the arm that exercises the render table;
    dropping the prototype loss keeps the 10^5-sample run in
    benchmark-friendly wall-clock without changing what is being measured.
    """
    base = dict(
        repr_dim=16,
        proj_dim=8,
        hidden_channels=8,
        depth=1,
        panel_size=24,
        series_length=96,
        n_variables=1,
        batch_size=64,
        seed=3407,
        compute_dtype="float32",
        use_prototype_loss=False,
    )
    base.update(overrides)
    return AimTSConfig(**base)


def _fit_samples_per_sec(pretrainer, pool, n_samples: int, epochs: int) -> tuple[float, float]:
    start = time.perf_counter()
    history = pretrainer.fit(pool, epochs=epochs)
    seconds = time.perf_counter() - start
    assert len(history) == epochs
    assert all(np.isfinite(v) for v in history.total_loss)
    return n_samples * epochs / seconds, seconds


def test_corpus_build_and_verify_throughput(tmp_path):
    """Stream 10^5 synthetic samples to disk, then re-checksum every shard."""
    start = time.perf_counter()
    corpus = build_synthetic_corpus(
        tmp_path / "corpus",
        ["ecg", "motion", "device"],
        BIG_SAMPLES,
        length=96,
        shard_size=4096,
        seed=3407,
    )
    build_seconds = time.perf_counter() - start
    assert len(corpus) == BIG_SAMPLES

    start = time.perf_counter()
    assert corpus.verify() == []
    verify_seconds = time.perf_counter() - start

    record = {
        "benchmark": "corpus_build",
        "n_samples": BIG_SAMPLES,
        "n_shards": corpus.n_shards,
        "corpus_mb": corpus.nbytes / 1e6,
        "build_seconds": build_seconds,
        "build_samples_per_sec": BIG_SAMPLES / build_seconds,
        "verify_seconds": verify_seconds,
        "verify_samples_per_sec": BIG_SAMPLES / verify_seconds,
        **_machine(),
    }
    append_bench_record(record)
    print(
        f"\n[perf] corpus build {BIG_SAMPLES} samples -> {corpus.n_shards} shards "
        f"({corpus.nbytes / 1e6:.0f} MB): {build_seconds:.1f}s "
        f"({BIG_SAMPLES / build_seconds:.0f} samples/s), "
        f"verify {verify_seconds:.1f}s"
    )


def test_streamed_pretrain_matches_in_ram_throughput(tmp_path):
    """Equal-footing parity: streamed corpus vs materialised pool.

    Both arms run the identical pre-train over the same samples; the corpus
    arm streams memmap-backed batches from a multi-shard on-disk layout.  The
    gate asserts streaming costs at most ``1 - STREAM_TOLERANCE`` of the
    in-RAM throughput.
    """
    corpus = build_synthetic_corpus(
        tmp_path / "corpus",
        ["ecg", "motion", "device"],
        PARITY_SAMPLES,
        length=96,
        shard_size=512,
        seed=3407,
    )
    pool = corpus.materialize()

    in_ram_sps, in_ram_seconds = _fit_samples_per_sec(
        AimTSPretrainer(_pretrain_config()), pool, PARITY_SAMPLES, PARITY_EPOCHS
    )
    streamed_sps, streamed_seconds = _fit_samples_per_sec(
        AimTSPretrainer(_pretrain_config()), corpus, PARITY_SAMPLES, PARITY_EPOCHS
    )

    record = {
        "benchmark": "corpus_stream_parity",
        "n_samples": PARITY_SAMPLES,
        "epochs": PARITY_EPOCHS,
        "n_shards": corpus.n_shards,
        "in_ram_seconds": in_ram_seconds,
        "in_ram_samples_per_sec": in_ram_sps,
        "streamed_seconds": streamed_seconds,
        "streamed_samples_per_sec": streamed_sps,
        "stream_speedup": streamed_sps / in_ram_sps,
        **_machine(),
    }
    append_bench_record(record)
    print(
        f"\n[perf] stream parity ({PARITY_SAMPLES} x{PARITY_EPOCHS} epochs): "
        f"in-RAM {in_ram_sps:.0f} samples/s, streamed {streamed_sps:.0f} samples/s "
        f"({streamed_sps / in_ram_sps:.2f}x, gate {STREAM_TOLERANCE})"
    )
    assert streamed_sps >= STREAM_TOLERANCE * in_ram_sps, (
        f"streamed pre-train reached only {streamed_sps / in_ram_sps:.2f}x the "
        f"in-RAM throughput ({streamed_sps:.0f} vs {in_ram_sps:.0f} samples/s)"
    )


def test_pretrain_100k_bounded_rss(tmp_path):
    """The tentpole arm: 10^5-sample pre-train with bounded memory.

    The rendered image set (~10^5 panel-24 float32 images) is an order of
    magnitude larger than the render table's budget: the table holds the
    leading rows, and every other row renders on each epoch.  Peak RSS is
    sampled during fit and must stay far below what materialising the images
    in RAM would cost.
    """
    corpus = build_synthetic_corpus(
        tmp_path / "corpus",
        ["ecg", "motion", "device"],
        BIG_SAMPLES,
        length=96,
        shard_size=4096,
        seed=3407,
    )
    config = _pretrain_config(cache_max_bytes=CACHE_BUDGET)
    pretrainer = AimTSPretrainer(config)
    image_set_mb = (
        BIG_SAMPLES * pretrainer.renderer.image_nbytes(config.n_variables) / 1e6
    )

    with RssSampler() as sampler:
        samples_per_sec, fit_seconds = _fit_samples_per_sec(
            pretrainer, corpus, BIG_SAMPLES, BIG_EPOCHS
        )
    stats = pretrainer.render_cache.stats()

    record = {
        "benchmark": "corpus_pretrain_100k",
        "n_samples": BIG_SAMPLES,
        "epochs": BIG_EPOCHS,
        "n_shards": corpus.n_shards,
        "corpus_mb": corpus.nbytes / 1e6,
        "image_set_mb": image_set_mb,
        "cache_budget_mb": CACHE_BUDGET / 1e6,
        "fit_seconds": fit_seconds,
        "samples_per_sec": samples_per_sec,
        "peak_rss_mb": sampler.peak_mb,
        "rss_delta_mb": sampler.delta_mb,
        "cache_hits": stats["hits"],
        "cache_misses": stats["misses"],
        "rendered_samples": stats["rendered_samples"],
        **_machine(),
    }
    append_bench_record(record)
    print(
        f"\n[perf] corpus pretrain {BIG_SAMPLES} x{BIG_EPOCHS} epochs: "
        f"{fit_seconds:.1f}s ({samples_per_sec:.0f} samples/s), "
        f"peak RSS {sampler.peak_mb and round(sampler.peak_mb)} MB "
        f"(delta {sampler.delta_mb and round(sampler.delta_mb)} MB, "
        f"image set {image_set_mb:.0f} MB), "
        f"{stats['rendered_samples']} renders, {stats['hits']} hits, "
        f"{stats['misses']} misses"
    )

    # bounded memory: the fit must not come close to materialising the image
    # set (the in-RAM alternative); half its size is a generous ceiling for
    # cache budget + batch buffers + memmap pages
    if sampler.available:
        assert sampler.delta_mb < 0.5 * image_set_mb, (
            f"RSS grew by {sampler.delta_mb:.0f} MB during the out-of-core fit "
            f"(image set: {image_set_mb:.0f} MB, cache budget: "
            f"{CACHE_BUDGET / 1e6:.0f} MB)"
        )
