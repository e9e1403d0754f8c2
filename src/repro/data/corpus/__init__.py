"""``repro.data.corpus`` — out-of-core sharded corpora for pre-training.

Everything upstream of this package assumed the pre-training pool fits in
RAM; this subsystem lifts that cap.  A corpus lives in a directory of plain
``.npy`` shards plus a JSON manifest (:mod:`~repro.data.corpus.format`),
written with bounded memory by :class:`CorpusWriter` and read back as
zero-copy ``np.memmap`` views by :class:`ShardedCorpus`, whose shard-aware
seeded iteration keeps epochs deterministic without a global in-RAM
permutation.  :func:`build_synthetic_corpus` streams the
:mod:`repro.data.generators` families to disk for million-sample scaling
runs, and ``python -m repro.data.corpus`` exposes ``build`` / ``inspect`` /
``verify`` subcommands over the same machinery.

A :class:`ShardedCorpus` plugs directly into ``build_pretraining_pool``,
:func:`repro.data.loaders.epoch_index_batches` and ``AimTSPretrainer.fit`` —
batches are densified per mini-batch and flow through the shared-memory
worker transport unchanged.
"""

from repro.data.corpus.format import (
    MANIFEST_NAME,
    SCHEMA_VERSION,
    CorpusFormatError,
    array_checksum,
    read_manifest,
)
from repro.data.corpus.reader import (
    CorpusReadError,
    CorpusReaderBase,
    CorpusSubset,
    ShardedCorpus,
    is_sharded_corpus,
)
from repro.data.corpus.synthetic import (
    DEFAULT_BLOCK_SIZE,
    build_synthetic_corpus,
    generate_family_samples,
)
from repro.data.corpus.writer import CorpusWriter

__all__ = [
    "CorpusFormatError",
    "CorpusReadError",
    "CorpusReaderBase",
    "CorpusSubset",
    "CorpusWriter",
    "DEFAULT_BLOCK_SIZE",
    "MANIFEST_NAME",
    "SCHEMA_VERSION",
    "ShardedCorpus",
    "array_checksum",
    "build_synthetic_corpus",
    "generate_family_samples",
    "is_sharded_corpus",
    "read_manifest",
]
