"""Batching and preprocessing utilities.

Multi-source pre-training mixes datasets with different lengths and variable
counts; :func:`pad_or_truncate` and :func:`z_normalize` bring samples to a
common shape and scale, and :class:`BatchIterator` shuffles and batches them.

All three are vectorized hot paths: :func:`pad_or_truncate` resamples every
series of a ``(n, M, T)`` array with one batched gather (no per-series
``np.interp`` loop), and :func:`z_normalize` / :class:`BatchIterator` accept a
``dtype`` argument and only copy/cast when the input does not already have the
requested dtype (floating inputs are kept as-is by default, so a float32
pipeline never round-trips through float64).
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.data.dataset import TimeSeriesDataset
from repro.utils.seeding import new_rng
from repro.utils.validation import check_positive


def as_float_array(X: np.ndarray, dtype: str | np.dtype | None = None) -> np.ndarray:
    """Return ``X`` as a floating array, copying only when a cast is needed.

    ``dtype=None`` keeps floating inputs untouched and promotes everything
    else (ints, bools) to float64; an explicit ``dtype`` casts when required.
    """
    X = np.asarray(X)
    if dtype is None:
        dtype = X.dtype if np.issubdtype(X.dtype, np.floating) else np.float64
    return X.astype(dtype, copy=False)


def z_normalize(
    X: np.ndarray, eps: float = 1e-8, *, dtype: str | np.dtype | None = None
) -> np.ndarray:
    """Per-sample, per-variable z-normalisation of ``(n, M, T)`` data.

    ``dtype`` selects the compute/output dtype; by default floating inputs
    keep their own dtype (no silent float64 upcast) and integer inputs are
    promoted to float64.
    """
    X = as_float_array(X, dtype)
    mean = X.mean(axis=-1, keepdims=True)
    std = X.std(axis=-1, keepdims=True)
    return (X - mean) / (std + eps)


def pad_or_truncate(X: np.ndarray, length: int) -> np.ndarray:
    """Bring ``(n, M, T)`` data to a fixed ``length`` along the time axis.

    Shorter series are linearly interpolated up; longer series are linearly
    interpolated down, preserving shape information better than cropping.
    The resampling runs as one batched gather over all ``n * M`` series at
    once: target positions are mapped into the source index space, and each
    output sample blends its two bracketing observations.
    """
    check_positive("length", length)
    X = as_float_array(X)
    n, m, t = X.shape
    if t == length:
        return X.copy()
    if t == 1:
        return np.repeat(X, length, axis=-1)
    # positions of the target grid in source-index space (both grids span [0, 1])
    positions = np.linspace(0.0, t - 1.0, length)
    left = np.minimum(np.floor(positions).astype(np.intp), t - 2)
    frac = (positions - left).astype(X.dtype, copy=False)
    return X[..., left] * (1.0 - frac) + X[..., left + 1] * frac


def select_variables(X: np.ndarray, n_variables: int) -> np.ndarray:
    """Bring ``(n, M, T)`` data to exactly ``n_variables`` channels.

    Datasets with fewer channels are tiled; datasets with more channels keep
    the first ``n_variables`` (multi-source pre-training needs a common width).
    """
    check_positive("n_variables", n_variables)
    n, m, t = X.shape
    if m == n_variables:
        return X.copy()
    if m > n_variables:
        return X[:, :n_variables].copy()
    repeats = int(np.ceil(n_variables / m))
    return np.tile(X, (1, repeats, 1))[:, :n_variables]


def _is_corpus(obj) -> bool:
    """Duck-typed check for the out-of-core readers of :mod:`repro.data.corpus`.

    Duck-typed (not an isinstance) so this hot module never imports the
    corpus package, which itself imports :func:`z_normalize` from here.
    """
    return (
        hasattr(obj, "gather")
        and hasattr(obj, "iter_index_batches")
        and hasattr(obj, "sample_shape")
    )


class BatchIterator:
    """Shuffling mini-batch iterator over ``(X, y)`` arrays.

    Parameters
    ----------
    X:
        Samples of shape ``(n, M, T)``.
    y:
        Optional integer labels.
    batch_size:
        Number of samples per batch; the last incomplete batch is kept.
    shuffle:
        Whether to reshuffle at the start of every epoch.
    seed:
        RNG seed for shuffling.
    dtype:
        Optional dtype for the samples; ``None`` keeps floating inputs
        untouched (no copy) and promotes integer inputs to float64.
    """

    def __init__(
        self,
        X: np.ndarray,
        y: np.ndarray | None = None,
        *,
        batch_size: int = 16,
        shuffle: bool = True,
        seed: int | np.random.Generator | None = None,
        dtype: str | np.dtype | None = None,
    ):
        check_positive("batch_size", batch_size)
        if _is_corpus(X):  # np.asarray would densify it sample by sample
            raise TypeError(
                "BatchIterator takes in-RAM arrays; stream a sharded corpus with "
                "epoch_index_batches and its gather()"
            )
        self.X = as_float_array(X, dtype)
        self.y = None if y is None else np.asarray(y, dtype=np.int64)
        if self.y is not None and self.y.shape[0] != self.X.shape[0]:
            raise ValueError("X and y must have the same number of samples")
        self.batch_size = int(batch_size)
        self.shuffle = shuffle
        self._rng = new_rng(seed)

    def __len__(self) -> int:
        return int(np.ceil(self.X.shape[0] / self.batch_size))

    def __iter__(self) -> Iterator[tuple]:
        order = np.arange(self.X.shape[0])
        if self.shuffle:
            self._rng.shuffle(order)
        for start in range(0, order.size, self.batch_size):
            batch = order[start : start + self.batch_size]
            yield self.X[batch], (self.y[batch] if self.y is not None else None)


def epoch_index_batches(
    pool,
    batch_size: int,
    *,
    epoch: int,
    seed: int,
    shuffle: bool = True,
) -> Iterator[np.ndarray]:
    """Stateless per-epoch batch schedule over an in-RAM pool or a corpus.

    The schedule of every loop with a produce stage: batch order derives from
    ``SeedSequence([seed, epoch])`` alone — no shared iterator advances — so
    producers, the parent and a resumed run all regenerate the identical
    sequence.  Corpus pools route through the reader's shard-aware
    :meth:`~repro.data.corpus.reader.CorpusReaderBase.batches_for_epoch`;
    in-RAM pools use a global permutation.
    """
    check_positive("batch_size", batch_size)
    batch_size = int(batch_size)
    if _is_corpus(pool):
        yield from pool.batches_for_epoch(
            batch_size, epoch=epoch, seed=seed, shuffle=shuffle
        )
        return
    n_samples = int(pool.shape[0]) if hasattr(pool, "shape") else len(pool)
    order = np.arange(n_samples, dtype=np.int64)
    if shuffle:
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), int(epoch)]))
        rng.shuffle(order)
    for start in range(0, order.size, batch_size):
        yield order[start : start + batch_size]


def build_pretraining_pool(
    corpus: "list[TimeSeriesDataset] | object",
    *,
    length: int = 96,
    n_variables: int = 1,
    max_samples: int | None = None,
    seed: int | np.random.Generator | None = None,
) -> np.ndarray:
    """Merge a multi-dataset corpus into one ``(N, n_variables, length)`` pool.

    Every dataset is z-normalised and resampled to a common shape so that
    samples from different sources can share mini-batches, as required by the
    multi-source pre-training stage.

    An out-of-core :class:`repro.data.corpus.ShardedCorpus` passes straight
    through (its samples were canonicalised at build time): the corpus —
    seeded-subsampled via ``max_samples`` when requested — is returned as-is
    for :func:`epoch_index_batches` to stream, never densified.
    """
    rng = new_rng(seed)
    if _is_corpus(corpus):
        if corpus.sample_shape != (n_variables, length):
            raise ValueError(
                f"corpus sample shape {corpus.sample_shape} does not match the "
                f"requested ({n_variables}, {length}); rebuild the corpus at "
                "the target shape"
            )
        if max_samples is not None and len(corpus) > max_samples:
            return corpus.subset(max_samples=max_samples, seed=rng)
        return corpus
    pools = []
    for dataset in corpus:
        X = z_normalize(dataset.train.X)
        X = pad_or_truncate(X, length)
        X = select_variables(X, n_variables)
        pools.append(X)
    pool = np.concatenate(pools, axis=0)
    if max_samples is not None and pool.shape[0] > max_samples:
        keep = rng.choice(pool.shape[0], size=max_samples, replace=False)
        pool = pool[np.sort(keep)]
    return pool
