"""Out-of-core pre-training demo: sharded corpora + a bounded render table.

The tour:

1. stream a synthetic multi-family corpus to disk with
   :func:`repro.data.build_synthetic_corpus` (bounded memory: one generation
   block + one shard buffer, regardless of corpus size),
2. open it as a :class:`repro.data.ShardedCorpus` — zero-copy ``np.memmap``
   views plus a checksum ``verify()`` pass,
3. show the determinism contract: rebuilding with a different shard size is
   byte-identical (generation is chunked by ``block_size``, not shard size),
4. pre-train straight from disk: ``AimTSPretrainer.fit(corpus)`` renders
   the corpus's leading rows once into a read-only table whose byte budget is
   far smaller than the rendered image set, then streams shard-aware shuffled
   mini-batches — rows in the table are read back, every other row is
   rendered on each epoch,
5. read back the table's counters and check the render count they imply.

The same corpus directory is also scriptable from the shell::

    python -m repro.data.corpus build --out /tmp/corpus --n-samples 100000
    python -m repro.data.corpus inspect /tmp/corpus
    python -m repro.data.corpus verify /tmp/corpus

Run with:  PYTHONPATH=src python examples/pretrain_large.py
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core import AimTSConfig, AimTSPretrainer
from repro.data import build_synthetic_corpus

N_SAMPLES = 8_192
SERIES_LENGTH = 96
EPOCHS = 2


def build_corpus(root: Path):
    print(f"=== building a {N_SAMPLES}-sample corpus on disk ===")
    start = time.perf_counter()
    corpus = build_synthetic_corpus(
        root / "corpus",
        ["ecg", "motion", "device"],
        N_SAMPLES,
        length=SERIES_LENGTH,
        shard_size=2048,
        seed=3407,
    )
    elapsed = time.perf_counter() - start
    print(
        f"built {len(corpus)} samples x {corpus.sample_shape} in "
        f"{corpus.n_shards} shards ({corpus.nbytes / 1e6:.0f} MB) "
        f"[{elapsed:.1f}s, {len(corpus) / elapsed:.0f} samples/s]"
    )
    assert corpus.verify() == [], "checksum verification failed"
    print("verify(): every shard matches its manifest checksum")
    return corpus


def show_determinism(root: Path, corpus):
    print("\n=== shard layout never changes the bytes ===")
    other = build_synthetic_corpus(
        root / "other_layout",
        ["ecg", "motion", "device"],
        N_SAMPLES,
        length=SERIES_LENGTH,
        shard_size=500,  # completely different file layout
        seed=3407,
    )
    assert other.n_shards != corpus.n_shards
    probe = np.random.default_rng(0).choice(N_SAMPLES, size=256, replace=False)
    assert np.array_equal(corpus.gather(probe), other.gather(probe))
    print(
        f"{corpus.n_shards}-shard and {other.n_shards}-shard builds are "
        "sample-for-sample byte-identical"
    )


def pretrain_from_disk(root: Path, corpus):
    print("\n=== pre-training straight from disk ===")
    config = AimTSConfig(
        repr_dim=16,
        proj_dim=8,
        hidden_channels=8,
        depth=1,
        panel_size=24,
        series_length=SERIES_LENGTH,
        batch_size=64,
        epochs=EPOCHS,
        seed=3407,
        compute_dtype="float32",
        use_prototype_loss=False,  # the series-image arm drives the cache
        cache_max_bytes=16 * 1024 * 1024,  # far below the rendered image set
    )
    pretrainer = AimTSPretrainer(config)
    image_set_mb = N_SAMPLES * pretrainer.renderer.image_nbytes(1) / 1e6
    print(
        f"render table: {config.cache_max_bytes / 1e6:.0f} MB budget vs a "
        f"{image_set_mb:.0f} MB image set -> the rest renders every epoch"
    )
    start = time.perf_counter()
    history = pretrainer.fit(corpus)
    elapsed = time.perf_counter() - start
    print(
        f"{EPOCHS} epochs over {N_SAMPLES} samples in {elapsed:.1f}s "
        f"({N_SAMPLES * EPOCHS / elapsed:.0f} samples/s), "
        f"final loss {history.total_loss[-1]:.4f}"
    )

    stats = pretrainer.render_cache.stats()
    print("\nrender table after the run:")
    for key in ("entries", "rendered_samples", "hits", "misses"):
        print(f"  {key:18} {stats[key]}")
    cached = len(pretrainer.render_cache)
    assert stats["rendered_samples"] == cached + EPOCHS * (N_SAMPLES - cached)
    print(
        f"the table's {cached} rows were rasterised once and read back on "
        f"each of {EPOCHS} epochs; the other {N_SAMPLES - cached} rendered "
        "every epoch"
    )
    return pretrainer


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        corpus = build_corpus(root)
        show_determinism(root, corpus)
        pretrain_from_disk(root, corpus)


if __name__ == "__main__":
    main()
