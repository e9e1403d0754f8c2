"""Pooled autograd workspaces: the one buffer pool of training and inference.

For a fixed configuration the autograd graph has identical topology and
shapes every step, so every array the forward and backward passes
materialise can come from a plan-once/reuse-forever :class:`StepArena`
instead of the allocator.  Inference uses the same pool: an estimator's
``encode`` / ``predict`` surfaces run ``Module.forward`` under ``no_grad()``
inside their own arena, advanced once per micro-batch
(:func:`repro.nn.inference.batched_infer`).

Two pool disciplines cover every training allocation pattern:

* :meth:`StepArena.buffer` — **generation-keyed** buffers for arrays that
  stay live until the step completes (padded conv1d inputs, conv2d im2col
  patch matrices, convolution outputs, activation masks, accumulated
  gradients).  The full key is ``(tag, shape, dtype, occurrence)`` where
  ``occurrence`` counts prior requests for the same ``(tag, shape, dtype)``
  within the current generation: the N-th identical request of every step
  returns the same buffer, and two live arrays of one step can never alias.
  A shape change (e.g. the smaller last batch of an epoch) simply populates
  its own buffer set.
* :meth:`StepArena.scratch` — a **single** buffer per ``(tag, shape,
  dtype)`` for transient temporaries that are consumed immediately (VJP
  products that are copied into a gradient buffer by
  ``Tensor._accumulate``; under ``no_grad()`` also the padded inputs, patch
  matrices and masks nothing keeps for a backward pass).  Reusing one slot
  per call-site keeps the pool footprint proportional to the working set,
  not the step length.

:meth:`StepArena.advance` rolls the generation over between steps — a
counter reset, not a free/alloc cycle — after which every ``buffer`` slot
may be handed out again.  Consequently **nothing may retain an arena-backed
array across steps**; the training engine guarantees this (losses are read
out as floats, batch-norm running statistics are rebuilt into fresh arrays,
parameter gradients live in per-tensor private buffers, and checkpoints
copy), and ``batched_infer`` copies each micro-batch's result out before
the next advance.  ``hits`` / ``misses`` / ``peak_bytes`` make the steady-state
contract testable: after warmup a fixed-shape step performs zero misses.

The arena reaches the compute core the same way a
:class:`~repro.engine.state.DtypePolicy` does — through a per-thread scope
(:func:`use_arena` / :func:`active_arena`) that the
:class:`~repro.engine.trainer.Trainer` enters around ``fit``.  An arena is
not thread-safe; sharded / pipelined replicas and serving replicas each own
a private one.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np


class _ArenaScope(threading.local):
    arena: "StepArena | None" = None


_SCOPE = _ArenaScope()


def _normalized_strides(array: np.ndarray) -> tuple[int, ...]:
    """Strides in elements (itemsize-free), comparable across dtypes."""
    itemsize = array.itemsize
    return tuple(s // itemsize for s in array.strides)


def _layout_perm(like: np.ndarray) -> tuple[int, ...] | None:
    """Axis order (descending stride) of ``like``; None for plain C order."""
    if like.flags.c_contiguous:
        return None
    strides = like.strides
    return tuple(sorted(range(like.ndim), key=lambda i: (-abs(strides[i]), i)))


def result_template(shape: tuple[int, ...], *operands: np.ndarray | None) -> np.ndarray | None:
    """The operand whose memory layout an allocate-fresh ufunc result follows.

    NumPy lays a ufunc result out like its full-shape operands when they all
    agree on a layout, and in C order otherwise (broadcast operands don't
    constrain the choice).  Pooled kernels pass the returned operand as
    ``like`` so downstream *reductions* iterate in exactly the order the
    allocate-fresh path would — pooling must not change a single bit.
    Returns ``None`` when the result is plain C order.
    """
    template = None
    for op in operands:
        if op is None or op.shape != tuple(shape):
            continue
        if template is None:
            template = op
        elif _normalized_strides(op) != _normalized_strides(template):
            return None
    if template is not None and not template.flags.c_contiguous:
        return template
    return None


def active_arena() -> "StepArena | None":
    """The arena the calling thread's scope pools through (None = allocate)."""
    return _SCOPE.arena


def set_active_arena(arena: "StepArena | None") -> "StepArena | None":
    """Install ``arena`` as the calling thread's pool; returns the previous one.

    Prefer the scoped :func:`use_arena` context manager (which the training
    engine uses) over calling this directly.
    """
    previous = _SCOPE.arena
    _SCOPE.arena = arena
    return previous


@contextlib.contextmanager
def use_arena(arena: "StepArena | None"):
    """Scope within which the calling thread's kernels pool buffers in ``arena``.

    ``None`` is a valid argument and simply keeps the allocate-fresh
    behaviour — callers can thread an optional arena without branching.
    """
    previous = set_active_arena(arena)
    try:
        yield arena
    finally:
        set_active_arena(previous)


class StepArena:
    """A per-step buffer arena for the forward/backward passes.

    See the module docstring for the pooling disciplines.  Stats:

    Attributes
    ----------
    hits, misses:
        Pool reuses vs fresh allocations, over the arena's lifetime.
    generation:
        Number of completed :meth:`advance` calls (≈ training steps or
        inference micro-batches served).
    peak_bytes:
        High-water mark of :meth:`nbytes` (sampled on allocation).
    """

    __slots__ = ("_buffers", "_counts", "_nbytes", "hits", "misses", "generation", "peak_bytes")

    def __init__(self):
        self._buffers: dict[tuple, np.ndarray] = {}
        self._counts: dict[tuple, int] = {}
        self._nbytes = 0
        self.hits = 0
        self.misses = 0
        self.generation = 0
        self.peak_bytes = 0

    # ------------------------------------------------------------------ pools
    def buffer(self, tag: str, shape: tuple[int, ...], dtype, like: np.ndarray | None = None) -> np.ndarray:
        """An uninitialised buffer that stays live until the next :meth:`advance`.

        The N-th request for a given ``(tag, shape, dtype, layout)`` within
        one generation returns the N-th pooled slot, so repeated call sites
        of a fixed graph get stable, never-aliased buffers step after step.
        ``like`` (usually from :func:`result_template`) requests a buffer
        laid out like that array instead of C order, matching what the
        allocate-fresh expression would have produced.
        """
        perm = None if like is None else _layout_perm(like)
        base = (tag, tuple(shape), np.dtype(dtype), perm)
        occurrence = self._counts.get(base, 0)
        self._counts[base] = occurrence + 1
        return self._get((*base, occurrence), shape, dtype, like if perm else None)

    def scratch(self, tag: str, shape: tuple[int, ...], dtype, like: np.ndarray | None = None) -> np.ndarray:
        """A transient buffer: one slot per key, reissued within a generation.

        Only for temporaries consumed before the call site can run again
        (e.g. a VJP product immediately copied by ``Tensor._accumulate``).
        ``like`` selects a non-C layout exactly as in :meth:`buffer`.
        """
        perm = None if like is None else _layout_perm(like)
        key = (tag, tuple(shape), np.dtype(dtype), perm, -1)
        return self._get(key, shape, dtype, like if perm else None)

    def _get(self, key: tuple, shape, dtype, like: np.ndarray | None = None) -> np.ndarray:
        buf = self._buffers.get(key)
        if buf is None:
            buf = np.empty(shape, dtype=dtype) if like is None else np.empty_like(like, dtype=dtype)
            self._buffers[key] = buf
            self.misses += 1
            self._nbytes += buf.nbytes
            if self._nbytes > self.peak_bytes:
                self.peak_bytes = self._nbytes
        else:
            self.hits += 1
        return buf

    # ------------------------------------------------------------------ admin
    def advance(self) -> None:
        """Start the next generation: every ``buffer`` slot becomes reusable."""
        self.generation += 1
        self._counts.clear()

    def nbytes(self) -> int:
        """Total bytes currently held by the pool."""
        return self._nbytes

    def clear(self) -> None:
        """Drop every pooled buffer (e.g. between differently-shaped fits)."""
        self._buffers.clear()
        self._counts.clear()
        self._nbytes = 0

    def stats(self) -> dict[str, int]:
        """Counter snapshot (plain ints, JSON-safe) for reports and tests."""
        return {
            "hits": int(self.hits),
            "misses": int(self.misses),
            "generation": int(self.generation),
            "nbytes": int(self._nbytes),
            "peak_bytes": int(self.peak_bytes),
            "buffers": len(self._buffers),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StepArena(buffers={len(self._buffers)}, nbytes={self._nbytes}, "
            f"hits={self.hits}, misses={self.misses}, generation={self.generation})"
        )
