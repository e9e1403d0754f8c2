"""The serving front door: a long-lived model server with micro-batching.

:class:`ModelServer` owns a loaded estimator and a
:class:`repro.serving.batcher.MicroBatcher`.  Callers submit single samples
(``submit`` returns a :class:`concurrent.futures.Future`; ``predict`` /
``predict_proba`` / ``encode`` block for convenience); worker threads pull
sealed micro-batches and run **one fused call** per batch through the
estimator's no-grad forward, scattering results back to the per-request
futures in submission order.

Thread workers, not processes: the heavy lifting is NumPy/BLAS which release
the GIL, and each worker holds its own deep-copied estimator replica — so
per-replica ``StepArena`` buffer pools stay warm and single-threaded while
the workers overlap compute (``no_grad``, the dtype scope and the active
arena are per thread, so workers never see each other's scopes).  Nothing
crosses a process boundary, so the server starts no process and creates no
shared memory: each request's sample is copied once, on the heap, into its
pending batch.  ``reload(path)`` loads a fresh bundle (Conv→BN
folded once at load), builds new replicas, and swaps them in atomically;
batches already in flight keep references to the old replicas, so nothing is
dropped or reordered.

Overload safety (PR 9): ``max_pending`` bounds the admission queue —
``submit`` fast-fails with :class:`ServerOverloadedError` instead of letting
the backlog grow without bound, and a per-request ``deadline_ms`` drops
stale requests (:class:`DeadlineExceededError`) *before* the fused call is
assembled, so expired work never occupies a batch slot.  A worker thread
that dies (``fault_point("server.worker")`` in chaos runs) is detected and
replaced on the next submit — accepted requests survive single-worker
crashes.
"""

from __future__ import annotations

import atexit
import copy
import os
import threading

import numpy as np

from repro.nn.inference import DEFAULT_SERVING_BATCH_SIZE
from repro.serving.batcher import MicroBatcher
from repro.serving.errors import DeadlineExceededError
from repro.serving.stats import ServerStats
from repro.utils.faults import fault_point

#: default deadline trigger: a lone request waits at most this long for company
DEFAULT_MAX_WAIT_MS = 2.0

_OP_GROUPS = {"predict": "proba", "predict_proba": "proba", "encode": "encode"}


def _default_workers() -> int:
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        cores = os.cpu_count() or 1
    return max(1, min(4, cores))


class ModelServer:
    """Micro-batching server over one estimator (thread-based, in-process).

    Parameters
    ----------
    estimator:
        A fitted estimator (``predict_proba`` and/or ``encode`` capable).
        Training-time worker pools are shut down before replication.
    max_batch:
        Size flush trigger — a group flushes as soon as it holds this many
        requests.  Defaults to the serving micro-batch size
        (:data:`repro.nn.inference.DEFAULT_SERVING_BATCH_SIZE`).
    max_wait_ms:
        Deadline flush trigger — a request never waits longer than this for
        a batch to fill.  Lower = better tail latency, higher = bigger
        batches under light load.
    n_workers:
        Worker threads, each with its own estimator replica and warm
        workspace.  Defaults to usable cores, capped at 4.
    max_pending:
        Admission bound: with this many requests accepted but unanswered,
        ``submit`` raises :class:`ServerOverloadedError` instead of
        queueing.  ``None`` (the default) keeps the historical unbounded
        queue.
    """

    def __init__(
        self,
        estimator,
        *,
        max_batch: int = DEFAULT_SERVING_BATCH_SIZE,
        max_wait_ms: float = DEFAULT_MAX_WAIT_MS,
        n_workers: int | None = None,
        eval_mode: bool = True,
        max_pending: int | None = None,
        clock=None,
    ):
        self.max_batch = int(max_batch)
        self.max_wait_ms = float(max_wait_ms)
        self.n_workers = int(n_workers) if n_workers is not None else _default_workers()
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")
        if max_pending is not None and max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.max_pending = int(max_pending) if max_pending is not None else None
        self._eval_mode = eval_mode
        self._stats = ServerStats()
        batcher_kwargs = {} if clock is None else {"clock": clock}
        self._batcher = MicroBatcher(
            max_batch=self.max_batch,
            max_wait_s=self.max_wait_ms / 1e3,
            stats=self._stats,
            **batcher_kwargs,
        )
        self._model_lock = threading.Lock()
        self._replicas = self._make_replicas(estimator)
        self._model_version = 0
        self._threads: list[threading.Thread] = []
        self._thread_lock = threading.Lock()
        self._started = False
        self._closed = False

    # -- construction ------------------------------------------------------

    @classmethod
    def from_bundle(cls, path, *, eval_mode: bool = True, **server_kwargs):
        """Build a server straight from a ``.npz`` bundle checkpoint.

        ``eval_mode=True`` (the default) folds Conv→BatchNorm pairs once at
        load time via :func:`repro.api.load_estimator`, so every served
        batch skips the per-call fold.
        """
        from repro.api.registry import load_estimator

        estimator = load_estimator(path, eval_mode=eval_mode)
        return cls(estimator, eval_mode=eval_mode, **server_kwargs)

    def _make_replicas(self, estimator) -> list:
        shutdown = getattr(estimator, "shutdown_workers", None)
        if callable(shutdown):
            shutdown()  # training-time pools don't survive deepcopy (no-op if absent)
        if self.n_workers == 1:
            return [estimator]
        try:
            return [estimator] + [
                copy.deepcopy(estimator) for _ in range(self.n_workers - 1)
            ]
        except Exception as error:
            raise RuntimeError(
                "could not replicate the estimator for multi-worker serving; "
                "pass n_workers=1 or make the estimator deep-copyable"
            ) from error

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ModelServer":
        """Spawn the worker threads (idempotent)."""
        if self._closed:
            raise RuntimeError("server is closed")
        if self._started:
            return self
        self._started = True
        for index in range(self.n_workers):
            thread = threading.Thread(
                target=self._worker_loop,
                args=(index,),
                name=f"repro-serving-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        atexit.register(self.close)
        return self

    def close(self) -> None:
        """Drain pending requests and stop the workers.

        Every request accepted before ``close`` is still answered; calling
        again (or on a never-started server) is a silent no-op.
        """
        if self._closed:
            return
        self._ensure_workers()  # a dead worker must not strand the drain
        self._closed = True
        atexit.unregister(self.close)
        self._batcher.close()
        for thread in self._threads:
            thread.join(timeout=60.0)
        self._threads = []

    def __enter__(self) -> "ModelServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- request path ------------------------------------------------------

    def submit(self, sample, op: str = "predict", *, deadline_ms: float | None = None):
        """Enqueue one sample; returns a future resolving to its result.

        ``sample`` is one series shaped ``(n_variables, length)`` (a 1-D
        array is promoted to one univariate sample).  ``op`` is one of
        ``"predict"`` (→ class id), ``"predict_proba"`` (→ probability row)
        or ``"encode"`` (→ representation row).  ``deadline_ms`` bounds the
        request's total queueing + service time: an expired request resolves
        exceptionally with :class:`DeadlineExceededError` and is pruned
        before the fused call, never occupying a batch slot.

        With ``max_pending`` set, a full queue raises
        :class:`ServerOverloadedError` *here* — shedding is free for the
        server and immediate for the caller.  The sample is copied before
        this returns, so the caller may overwrite its array at once.
        """
        group = _OP_GROUPS.get(op)
        if group is None:
            raise ValueError(f"unknown op {op!r}; expected one of {sorted(_OP_GROUPS)}")
        if not self._started or self._closed:
            raise RuntimeError(
                "server is not running; call start() or use it as a context manager"
            )
        self._ensure_workers()
        sample = np.asarray(sample)
        if sample.ndim == 1:
            sample = sample[None, :]
        if sample.ndim != 2:
            raise ValueError(
                f"submit() takes one (n_variables, length) sample; got shape {sample.shape}"
            )
        key = (group, sample.shape, sample.dtype.name)
        deadline_s = deadline_ms / 1e3 if deadline_ms is not None else None
        return self._batcher.submit(
            key, op, sample, deadline_s=deadline_s, max_pending=self.max_pending
        ).future

    def _gather(self, X, op: str):
        X = np.asarray(X)
        single = X.ndim <= 2
        if single:
            X = X[None] if X.ndim == 2 else X[None, None]
        futures = [self.submit(sample, op=op) for sample in X]
        results = [future.result() for future in futures]
        out = np.asarray(results) if op == "predict" else np.stack(results)
        return out[0] if single else out

    def predict(self, X) -> np.ndarray:
        """Blocking convenience: micro-batched class predictions for ``X``."""
        return self._gather(X, "predict")

    def predict_proba(self, X) -> np.ndarray:
        """Blocking convenience: micro-batched class probabilities for ``X``."""
        return self._gather(X, "predict_proba")

    def encode(self, X) -> np.ndarray:
        """Blocking convenience: micro-batched representations for ``X``."""
        return self._gather(X, "encode")

    # -- hot reload --------------------------------------------------------

    def reload(self, path) -> "ModelServer":
        """Atomically swap in a new bundle without dropping in-flight work.

        The new bundle is loaded and replicated *outside* the model lock;
        the swap itself is a single reference update.  Batches already
        handed to a worker keep their old replica, so every accepted request
        completes against a consistent model — no drops, no reordering.
        """
        from repro.api.registry import load_estimator

        estimator = load_estimator(path, eval_mode=self._eval_mode)
        replicas = self._make_replicas(estimator)
        with self._model_lock:
            self._replicas = replicas
            self._model_version += 1
        self._stats.increment("reloads")
        return self

    @property
    def model_version(self) -> int:
        """How many times :meth:`reload` has swapped the model (0 = initial)."""
        with self._model_lock:
            return self._model_version

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        """Snapshot of serving counters plus derived batching figures.

        Includes a ``workspace`` section — inference buffer-arena counters
        (``hits`` / ``misses`` / ``nbytes`` / ``peak_bytes`` / ``buffers`` /
        ``generation``) summed across the worker replicas'
        :class:`~repro.nn.arena.StepArena` pools — so operators can verify steady-state serving
        reuses its buffers instead of allocating per batch.
        """
        snapshot = self._stats.snapshot()
        batches = snapshot.get("batches", 0)
        snapshot["mean_batch_size"] = (
            snapshot.get("batched_samples", 0) / batches if batches else 0.0
        )
        snapshot["model_version"] = self.model_version
        snapshot["n_workers"] = self.n_workers
        snapshot["max_batch"] = self.max_batch
        snapshot["max_wait_ms"] = self.max_wait_ms
        # reliability counters are part of the stable surface: report them
        # even before the first shed / expiry / crash
        for key in ("shed_requests", "deadline_expired", "worker_deaths", "worker_restarts"):
            snapshot.setdefault(key, 0)
        snapshot["workspace"] = self._workspace_stats()
        return snapshot

    def _workspace_stats(self) -> dict:
        """Sum the replicas' inference-workspace counters (zeros if opaque)."""
        merged = {"hits": 0, "misses": 0, "nbytes": 0, "peak_bytes": 0, "buffers": 0}
        with self._model_lock:
            replicas = list(self._replicas)
        for replica in replicas:
            collect = getattr(replica, "workspace_stats", None)
            if not callable(collect):
                continue
            for key, value in collect().items():
                merged[key] = merged.get(key, 0) + int(value)
        return merged

    # -- worker side -------------------------------------------------------

    def _ensure_workers(self) -> None:
        """Replace dead worker threads (crash detection on the submit path).

        A worker thread that died outside the normal shutdown path (chaos
        faults, estimator segfault-adjacent bugs) would silently strand the
        queue.  Every ``submit`` cheaply scans the thread list and respawns
        dead entries under the thread lock, counting ``worker_restarts``.
        """
        if self._closed or not self._started:
            return
        if all(thread.is_alive() for thread in self._threads):
            return
        with self._thread_lock:
            for slot, thread in enumerate(self._threads):
                if thread.is_alive() or self._closed:
                    continue
                replacement = threading.Thread(
                    target=self._worker_loop,
                    args=(slot,),
                    name=f"{thread.name}-r",
                    daemon=True,
                )
                replacement.start()
                self._threads[slot] = replacement
                self._stats.increment("worker_restarts")

    def _partition_expired(self, batch):
        """Split a sealed batch into (live, expired) by request deadline."""
        now = self._batcher.clock()
        live, expired = [], []
        for request in batch.requests:
            if request.deadline_at is not None and now > request.deadline_at:
                expired.append(request)
            else:
                live.append(request)
        return live, expired

    def _worker_loop(self, index: int) -> None:
        try:
            self._serve_forever(index)
        except Exception:  # thread death is detected + healed on submit
            self._stats.increment("worker_deaths")

    def _serve_forever(self, index: int) -> None:
        while True:
            fault_point("server.worker")  # chaos: kills the thread between batches
            batch = self._batcher.next_batch()
            if batch is None:
                return
            with self._model_lock:
                estimator = self._replicas[index % len(self._replicas)]
            try:
                live, expired = self._partition_expired(batch)
                for request in expired:
                    waited_ms = (self._batcher.clock() - request.submitted_at) * 1e3
                    deadline_ms = (request.deadline_at - request.submitted_at) * 1e3
                    _reject(request.future, DeadlineExceededError(deadline_ms, waited_ms))
                if expired:
                    self._stats.increment("deadline_expired", len(expired))
                if not live:
                    continue
                X = batch.materialize(live)
                if batch.group == "proba":
                    proba = estimator.predict_proba(X)
                    for request, row in zip(live, proba):
                        value = int(np.argmax(row)) if request.op == "predict" else row
                        _resolve(request.future, value)
                else:
                    encoded = estimator.encode(X)
                    for request, row in zip(live, encoded):
                        _resolve(request.future, row)
                self._stats.increment("responses", len(live))
            except Exception as error:  # scatter the failure, keep serving
                for request in batch.requests:
                    _reject(request.future, error)
                self._stats.increment("errors", len(batch.requests))


def _resolve(future, value) -> None:
    if not future.cancelled():
        future.set_result(value)


def _reject(future, error) -> None:
    if not future.cancelled():
        future.set_exception(error)
