"""Zero-copy sharded corpus reader with shard-aware shuffled iteration.

:class:`ShardedCorpus` opens the shard files of a corpus directory as
``np.memmap`` views (``np.load(..., mmap_mode="r")``), so a million-sample
corpus costs a handful of file descriptors, not its size in RAM.  Batches
are assembled by :meth:`~CorpusReaderBase.gather`, which groups the requested
indices by shard and slices each memmap once — only batch-sized copies are
ever densified.

Epoch iteration (:meth:`~CorpusReaderBase.iter_index_batches`) is
*shard-aware*: a seeded permutation of the shard order plus a seeded
permutation **within** each shard.  That keeps epochs deterministic at a
fixed seed while the resident index state stays bounded by one shard (plus a
partial-batch carry) instead of a global ``(N,)`` permutation, and it keeps
disk access shard-local so a spinning-disk corpus streams instead of
seeking.  For a single-shard corpus the order is bit-identical to the
in-RAM global shuffle of :func:`repro.data.loaders.epoch_index_batches`
under the same seed.
"""

from __future__ import annotations

import os
from collections.abc import Iterator

import numpy as np

from repro.data.corpus.format import (
    CorpusFormatError,
    array_checksum,
    read_manifest,
)
from repro.utils.faults import InjectedFault, fault_point
from repro.utils.seeding import new_rng
from repro.utils.validation import check_positive


class CorpusReadError(CorpusFormatError):
    """A shard file stayed unreadable after the configured read retries."""


def is_sharded_corpus(obj) -> bool:
    """Duck-typed corpus check used by the loaders (no import cycle)."""
    return (
        hasattr(obj, "gather")
        and hasattr(obj, "iter_index_batches")
        and hasattr(obj, "sample_shape")
    )


class CorpusReaderBase:
    """Shared protocol of :class:`ShardedCorpus` and :class:`CorpusSubset`.

    Subclasses provide ``_shard_index_block(shard)`` — the index keys living
    in one shard, in on-disk order — plus :meth:`gather` /
    :meth:`gather_labels`; iteration, batching and materialisation are
    implemented here once.
    """

    #: set by subclasses
    n_shards: int
    sample_shape: tuple[int, ...]
    dtype: np.dtype
    labeled: bool

    def __len__(self) -> int:  # pragma: no cover - interface
        raise NotImplementedError

    def _shard_index_block(self, shard: int) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError

    def gather(self, indices: np.ndarray) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError

    def gather_labels(self, indices: np.ndarray) -> np.ndarray | None:  # pragma: no cover
        raise NotImplementedError

    @property
    def shape(self) -> tuple[int, ...]:
        """``(n_samples, M, T)`` — the shape the corpus would densify to."""
        return (len(self), *self.sample_shape)

    @property
    def nbytes(self) -> int:
        """Bytes the sample data would occupy densified."""
        return int(len(self)) * int(np.prod(self.sample_shape)) * self.dtype.itemsize

    def materialize(self) -> np.ndarray:
        """Densify the whole corpus into one in-RAM array (small corpora only)."""
        return self.gather(np.arange(len(self), dtype=np.int64))

    # --------------------------------------------------------------- iteration
    def iter_index_batches(
        self,
        batch_size: int,
        *,
        rng: int | np.random.Generator | None = None,
        shuffle: bool = True,
    ) -> Iterator[np.ndarray]:
        """Yield index batches covering every sample exactly once.

        ``shuffle=True`` draws the shard order and every within-shard
        permutation from ``rng`` (shared generators advance it, so trainer
        checkpoints capture the epoch stream exactly as for in-RAM pools);
        ``shuffle=False`` yields sequential order.  Batches may span shard
        boundaries — the carry buffer keeps every batch except the last at
        ``batch_size``.
        """
        check_positive("batch_size", batch_size)
        batch_size = int(batch_size)
        rng = new_rng(rng)
        shard_order = rng.permutation(self.n_shards) if shuffle else np.arange(self.n_shards)
        carry = np.empty(0, dtype=np.int64)
        for shard in shard_order:
            block = self._shard_index_block(int(shard))
            if block.size == 0:
                continue
            if shuffle:
                block = block[rng.permutation(block.size)]
            if carry.size:
                take = min(batch_size - carry.size, block.size)
                carry = np.concatenate([carry, block[:take]])
                block = block[take:]
                if carry.size < batch_size:
                    continue
                yield carry
                carry = np.empty(0, dtype=np.int64)
            n_full = block.size // batch_size
            for start in range(0, n_full * batch_size, batch_size):
                yield block[start : start + batch_size]
            carry = np.array(block[n_full * batch_size :], dtype=np.int64)
        if carry.size:
            yield carry

    def batches_for_epoch(
        self,
        batch_size: int,
        *,
        epoch: int,
        seed: int,
        shuffle: bool = True,
    ) -> Iterator[np.ndarray]:
        """The epoch's index batches as a *stateless* schedule.

        Unlike :meth:`iter_index_batches` — whose generator consumes a shared
        ``rng`` and is therefore single-consumer — this derives a private
        generator from ``SeedSequence([seed, epoch])``, so any number of
        producers (or a resumed run) can regenerate the identical batch
        sequence without coordinating iterator state.  Same shard-aware
        algorithm, same batch shapes.
        """
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), int(epoch)]))
        return self.iter_index_batches(batch_size, rng=rng, shuffle=shuffle)


class ShardedCorpus(CorpusReaderBase):
    """Read a corpus directory written by :class:`~repro.data.corpus.CorpusWriter`.

    Parameters
    ----------
    directory:
        The corpus directory (must hold a valid ``manifest.json``).
    mmap:
        Open shards as read-only memory maps (the point of the format);
        ``False`` loads each shard into RAM on first touch — only useful to
        benchmark the memmap path against.
    read_retries:
        Transient shard-open failures (NFS hiccups, chaos faults at the
        ``corpus.read_shard`` site) are retried this many times before the
        shard counts as unreadable; retries are tallied in
        ``read_retry_count``.
    skip_corrupt:
        ``True`` iterates *around* unreadable shards: a shard whose open
        fails after retries is quarantined in memory (``quarantined`` maps
        shard → reason, ``dropped_samples`` counts the loss) and its index
        block is skipped by :meth:`iter_index_batches`.  :meth:`gather` on a
        quarantined shard's indices still raises — silent sample
        substitution is never correct.  The default ``False`` raises
        :class:`CorpusReadError` at first touch.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        *,
        mmap: bool = True,
        read_retries: int = 1,
        skip_corrupt: bool = False,
    ):
        if read_retries < 0:
            raise ValueError(f"read_retries must be >= 0, got {read_retries}")
        self.directory = str(directory)
        self.manifest = read_manifest(self.directory)
        self.mmap = bool(mmap)
        self.read_retries = int(read_retries)
        self.skip_corrupt = bool(skip_corrupt)
        #: total transient-open retries that eventually succeeded or gave up
        self.read_retry_count = 0
        #: shard index → reason, for shards quarantined at read time
        self.quarantined: dict[int, str] = {}
        #: samples unreachable through quarantined shards
        self.dropped_samples = 0
        self.sample_shape = tuple(int(size) for size in self.manifest["sample_shape"])
        self.dtype = np.dtype(self.manifest["dtype"])
        self.labeled = self.manifest.get("labels_dtype") is not None
        self._shard_entries = list(self.manifest["shards"])
        counts = np.array([int(entry["n_samples"]) for entry in self._shard_entries], dtype=np.int64)
        #: global index of each shard's first sample, plus the total
        self._offsets = np.concatenate([[0], np.cumsum(counts)])
        declared = int(self.manifest["n_samples"])
        if declared != int(self._offsets[-1]):
            raise CorpusFormatError(
                f"manifest n_samples={declared} does not match the shard "
                f"counts (sum={int(self._offsets[-1])})"
            )
        self._data_maps: dict[int, np.ndarray] = {}
        self._label_maps: dict[int, np.ndarray] = {}

    def __len__(self) -> int:
        return int(self._offsets[-1])

    @property
    def n_shards(self) -> int:
        return len(self._shard_entries)

    @property
    def shard_sizes(self) -> list[int]:
        return [int(entry["n_samples"]) for entry in self._shard_entries]

    @property
    def provenance(self) -> dict:
        return self.manifest.get("provenance", {})

    # ------------------------------------------------------------------ access
    def _open(self, file_name: str) -> np.ndarray:
        path = os.path.join(self.directory, file_name)
        attempt = 0
        while True:
            try:
                fault_point("corpus.read_shard")
                return np.load(path, mmap_mode="r" if self.mmap else None, allow_pickle=False)
            except (OSError, ValueError, InjectedFault) as error:
                if attempt >= self.read_retries:
                    raise CorpusReadError(
                        f"shard file {file_name!r} unreadable after "
                        f"{attempt + 1} attempt(s): {error}"
                    ) from error
                attempt += 1
                self.read_retry_count += 1

    def shard_data(self, shard: int) -> np.ndarray:
        """The ``(n, M, T)`` memmap view of one shard (opened lazily, kept)."""
        view = self._data_maps.get(shard)
        if view is None:
            view = self._open(self._shard_entries[shard]["data"])
            self._data_maps[shard] = view
        return view

    def shard_labels(self, shard: int) -> np.ndarray:
        view = self._label_maps.get(shard)
        if view is None:
            view = self._open(self._shard_entries[shard]["labels"])
            self._label_maps[shard] = view
        return view

    def _quarantine(self, shard: int, reason: str) -> None:
        if shard not in self.quarantined:
            self.quarantined[shard] = reason
            self.dropped_samples += int(self._shard_entries[shard]["n_samples"])

    def _shard_index_block(self, shard: int) -> np.ndarray:
        if shard in self.quarantined:
            return np.empty(0, dtype=np.int64)
        if self.skip_corrupt:
            # probe the shard before handing out its indices: an unreadable
            # shard is quarantined here so iteration routes around it instead
            # of failing mid-epoch at gather time
            try:
                self.shard_data(shard)
                if self.labeled:
                    self.shard_labels(shard)
            except CorpusReadError as error:
                self._quarantine(shard, str(error))
                return np.empty(0, dtype=np.int64)
        return np.arange(self._offsets[shard], self._offsets[shard + 1], dtype=np.int64)

    def _shard_of(self, indices: np.ndarray) -> np.ndarray:
        return np.searchsorted(self._offsets, indices, side="right") - 1

    def _check_indices(self, indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.int64)
        if indices.ndim != 1:
            raise ValueError(f"indices must be 1-D, got shape {indices.shape}")
        if indices.size and (indices.min() < 0 or indices.max() >= len(self)):
            raise IndexError(f"corpus indices out of range [0, {len(self)})")
        return indices

    def __getitem__(self, index: int) -> np.ndarray:
        return self.gather(np.array([int(index)]))[0]

    def gather(self, indices: np.ndarray) -> np.ndarray:
        """Densify the samples at global ``indices`` into one ``(B, M, T)`` array.

        Indices are grouped by shard so each shard's memmap is fancy-indexed
        once; pages of untouched shards are never read.
        """
        indices = self._check_indices(indices)
        out = np.empty((indices.size, *self.sample_shape), dtype=self.dtype)
        shard_ids = self._shard_of(indices)
        for shard in np.unique(shard_ids):
            if int(shard) in self.quarantined:
                raise CorpusReadError(
                    f"shard {int(shard)} is quarantined "
                    f"({self.quarantined[int(shard)]}); its samples are unavailable"
                )
            mask = shard_ids == shard
            out[mask] = self.shard_data(int(shard))[indices[mask] - self._offsets[shard]]
        return out

    def gather_labels(self, indices: np.ndarray) -> np.ndarray | None:
        """Labels at global ``indices`` (``None`` for unlabeled corpora)."""
        if not self.labeled:
            return None
        indices = self._check_indices(indices)
        out = np.empty(indices.size, dtype=np.int64)
        shard_ids = self._shard_of(indices)
        for shard in np.unique(shard_ids):
            mask = shard_ids == shard
            out[mask] = self.shard_labels(int(shard))[indices[mask] - self._offsets[shard]]
        return out

    @property
    def labels(self) -> np.ndarray | None:
        """All labels densified (labels are tiny relative to the samples)."""
        if not self.labeled:
            return None
        return self.gather_labels(np.arange(len(self), dtype=np.int64))

    # ------------------------------------------------------------------ subset
    def subset(
        self,
        indices: np.ndarray | None = None,
        *,
        max_samples: int | None = None,
        seed: int | np.random.Generator | None = None,
    ) -> "CorpusSubset":
        """A reader over a subset of this corpus (no data is copied).

        Pass explicit global ``indices``, or ``max_samples`` for a seeded
        uniform subsample (sorted, so shard locality is preserved) — the
        out-of-core analogue of ``build_pretraining_pool(max_samples=...)``.
        """
        if (indices is None) == (max_samples is None):
            raise ValueError("pass exactly one of indices / max_samples")
        if indices is None:
            check_positive("max_samples", max_samples)
            if max_samples >= len(self):
                indices = np.arange(len(self), dtype=np.int64)
            else:
                rng = new_rng(seed)
                indices = np.sort(rng.choice(len(self), size=int(max_samples), replace=False))
        return CorpusSubset(self, indices)

    # ------------------------------------------------------------------ verify
    def verify(self) -> list[str]:
        """Re-checksum every shard; returns the corrupt file names (empty = ok).

        Each shard is densified one at a time (bounded memory) and hashed
        exactly as the writer hashed it; a flipped byte, truncated file or
        missing file lands the file name in the returned list.
        """
        corrupt: list[str] = []
        for shard, entry in enumerate(self._shard_entries):
            for file_key, checksum_key, open_fn in (
                ("data", "checksum", self.shard_data),
                ("labels", "labels_checksum", self.shard_labels),
            ):
                if file_key not in entry:
                    continue
                try:
                    array = np.asarray(open_fn(shard))
                    ok = (
                        array.shape[0] == int(entry["n_samples"])
                        and array_checksum(array) == entry[checksum_key]
                    )
                except (OSError, ValueError):
                    ok = False
                if not ok:
                    corrupt.append(entry[file_key])
        return corrupt


class CorpusSubset(CorpusReaderBase):
    """A view over selected global indices of a :class:`ShardedCorpus`.

    Exposes the same reader protocol with *local* indices ``0..len-1`` (the
    keys yielded by iteration and consumed by :meth:`gather`), so downstream
    consumers — the epoch schedule, the render cache — treat a subset exactly
    like a smaller corpus with stable per-sample keys.
    """

    def __init__(self, base: ShardedCorpus, indices: np.ndarray):
        self.base = base
        self.indices = base._check_indices(np.asarray(indices, dtype=np.int64))
        self.sample_shape = base.sample_shape
        self.dtype = base.dtype
        self.labeled = base.labeled
        #: local positions grouped by the shard of their global index
        shard_ids = base._shard_of(self.indices)
        self._per_shard = [
            np.flatnonzero(shard_ids == shard).astype(np.int64)
            for shard in range(base.n_shards)
        ]

    def __len__(self) -> int:
        return int(self.indices.size)

    @property
    def n_shards(self) -> int:
        return self.base.n_shards

    def _shard_index_block(self, shard: int) -> np.ndarray:
        return self._per_shard[shard]

    def _map(self, indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= len(self)):
            raise IndexError(f"subset indices out of range [0, {len(self)})")
        return self.indices[indices]

    def __getitem__(self, index: int) -> np.ndarray:
        return self.base[int(self._map(np.array([int(index)]))[0])]

    def gather(self, indices: np.ndarray) -> np.ndarray:
        return self.base.gather(self._map(indices))

    def gather_labels(self, indices: np.ndarray) -> np.ndarray | None:
        return self.base.gather_labels(self._map(indices))
