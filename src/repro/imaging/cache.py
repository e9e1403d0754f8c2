"""Read-only render table for the line-chart imaging pipeline.

Line-chart rendering is a pure function of the sample, so the pool's renders
can be made once and read back every epoch.  :class:`RenderCache` is that
table:

* :meth:`precompute_pool` renders the pool's leading rows once, in vectorized
  chunks, up to an optional ``max_bytes`` budget — from an in-RAM
  ``(N, M, T)`` array or an out-of-core sharded corpus alike;
* :meth:`get_batch` serves a row from the table when the stored **content
  hash** of the series matches the requested row (a *hit*) and renders
  every other row (a *miss*): rows beyond the budget, indices the table never
  held, and rows whose content changed.  Nothing is inserted, evicted or
  refreshed after the fill, so a changed row is rendered on every lookup and
  never served stale.  Rows are hashed as the renderer reads them, cast to
  its dtype, so a float64 corpus fills the table that float32 batches of the
  same rows hit;
* hit/miss counters plus render timings are exposed via :meth:`stats` so
  benchmarks (``benchmarks/test_perf_imaging.py``,
  ``benchmarks/test_perf_corpus.py``) can report cache behaviour per epoch.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

from repro.data.loaders import is_sharded_corpus
from repro.imaging.line_chart import LineChartRenderer


def content_hash(sample: np.ndarray) -> bytes:
    """A compact content digest of one ``(M, T)`` sample (shape-sensitive).

    Values are canonicalised to float64 before hashing so a pool and its
    batches hash identically even when one side was promoted (int → float64,
    float32 → float64) on its way through the loaders — the renderer casts to
    its own dtype anyway, so value-equal inputs produce identical images.
    """
    arr = np.ascontiguousarray(sample, dtype=np.float64)
    digest = hashlib.blake2b(arr.tobytes(), digest_size=16)
    digest.update(repr(arr.shape).encode())
    return digest.digest()


class RenderCache:
    """A table of deterministic line-chart renders, filled once and then read.

    Parameters
    ----------
    renderer:
        The :class:`LineChartRenderer` that fills the table and renders every
        lookup the table cannot serve.
    max_bytes:
        Optional cap on the image bytes the table holds: :meth:`precompute_pool`
        renders only the pool prefix that fits.  ``None`` means unbounded.
    """

    def __init__(self, renderer: LineChartRenderer, *, max_bytes: int | None = None):
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive or None, got {max_bytes}")
        self.renderer = renderer
        self.max_bytes = max_bytes
        self._images: dict[int, np.ndarray] = {}
        self._hashes: dict[int, bytes] = {}
        self._nbytes = 0
        self.hits = 0
        self.misses = 0
        self.rendered_samples = 0
        self.render_seconds = 0.0

    # ------------------------------------------------------------- inspection
    def __len__(self) -> int:
        return len(self._images)

    @property
    def nbytes(self) -> int:
        """Total bytes of the stored images."""
        return self._nbytes

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the table (0.0 when none yet)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def stats(self) -> dict[str, float | int]:
        """Counters for benchmarks and logging."""
        return {
            "entries": len(self._images),
            "nbytes": self._nbytes,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "rendered_samples": self.rendered_samples,
            "render_seconds": self.render_seconds,
        }

    # ---------------------------------------------------------------- filling
    def _render(self, batch: np.ndarray) -> np.ndarray:
        start = time.perf_counter()
        images = self.renderer.render_batch(batch)
        self.render_seconds += time.perf_counter() - start
        self.rendered_samples += batch.shape[0]
        return images

    def precompute_pool(self, pool, *, chunk_size: int = 512) -> dict[str, float | int]:
        """Fill the table with the renders of ``pool``'s leading rows.

        ``pool`` is an ``(N, M, T)`` array, read by slicing, or a sharded
        corpus, read with ``gather`` — either way ``chunk_size`` rows at a
        time, so a corpus is never densified whole.  With ``max_bytes`` set
        only the prefix that fits is rendered; the rows beyond it render on
        every lookup.  The fill replaces whatever the table held.  Returns
        :meth:`stats`.
        """
        corpus = is_sharded_corpus(pool)
        if not corpus:
            pool = np.asarray(pool)
        if len(pool.shape) != 3:
            raise ValueError(f"expected (N, M, T) pool, got shape {pool.shape}")
        self._images.clear()
        self._hashes.clear()
        self._nbytes = 0
        n_rows = pool.shape[0]
        if self.max_bytes is not None:
            # the image size is known before rendering anything
            n_rows = min(n_rows, self.max_bytes // self.renderer.image_nbytes(pool.shape[1]))
        for start in range(0, n_rows, int(chunk_size)):
            stop = min(start + int(chunk_size), n_rows)
            chunk = pool.gather(np.arange(start, stop)) if corpus else pool[start:stop]
            chunk = np.asarray(chunk, dtype=self.renderer.dtype)
            images = self._render(chunk)
            for offset in range(stop - start):
                self._images[start + offset] = images[offset]
                self._hashes[start + offset] = content_hash(chunk[offset])
            self._nbytes += images.nbytes
        return self.stats()

    # ---------------------------------------------------------------- lookups
    def get_batch(self, batch: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Images for ``batch`` ``(B, M, T)``, whose rows sit at pool ``indices``.

        A row whose index is in the table with a matching content hash is
        served from it (a *hit*); every other row is rendered, in one
        vectorized call (a *miss*), and the table is left as it is.
        """
        batch = np.asarray(batch, dtype=self.renderer.dtype)
        indices = np.asarray(indices, dtype=np.int64)
        if batch.ndim != 3:
            raise ValueError(f"expected (B, M, T) batch, got shape {batch.shape}")
        if indices.shape != (batch.shape[0],):
            raise ValueError(
                f"indices must be (B,) == ({batch.shape[0]},), got {indices.shape}"
            )
        served: list[np.ndarray | None] = []
        missing: list[int] = []
        for position, index in enumerate(indices.tolist()):
            stored = self._hashes.get(index)
            if stored is not None and stored == content_hash(batch[position]):
                served.append(self._images[index])
                self.hits += 1
            else:
                served.append(None)
                missing.append(position)
                self.misses += 1
        if missing:
            for position, image in zip(missing, self._render(batch[missing])):
                served[position] = image
        return np.stack(served, axis=0)
