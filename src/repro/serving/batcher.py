"""Dynamic micro-batching: coalesce concurrent requests into fused batches.

The scheduler keeps one pending group per ``(op group, sample shape, dtype)``
key, so a flushed batch is always homogeneous and stacks into a single fused
call.  A group flushes on whichever trigger fires first:

* **size** — the group reaches ``max_batch`` (sealed by the submitting
  thread itself, no scheduler hop), or
* **deadline** — ``max_wait_s`` elapsed since the group's *first* request
  (sealed by a worker waking from a timed wait), so a lone request is never
  stranded waiting for company.

``close()`` drains every pending group into the ready queue before waking
the workers, so accepted requests are always answered.

Samples never leave the process (the server's workers are threads):
``submit`` copies each sample once, on the heap and before taking the lock,
into the request it enqueues — so a caller may reuse its array at once — and
:meth:`MicroBatch.materialize` stacks those copies into the fused input.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future

import numpy as np

from repro.serving.errors import ServerOverloadedError
from repro.serving.stats import ServerStats


class Request:
    """One accepted request: its private sample copy plus the caller's future."""

    __slots__ = ("op", "array", "future", "submitted_at", "deadline_at")

    def __init__(self, op: str, array, submitted_at: float, deadline_at=None):
        self.op = op
        self.array = array
        self.future: Future = Future()
        self.submitted_at = submitted_at
        self.deadline_at = deadline_at  # absolute clock time, or None = no deadline


class MicroBatch:
    """A sealed, homogeneous batch ready for one fused estimator call."""

    __slots__ = ("key", "requests", "trigger")

    def __init__(self, key, requests, trigger: str):
        self.key = key
        self.requests = requests
        self.trigger = trigger  # "size" | "deadline" | "drain"

    @property
    def group(self) -> str:
        return self.key[0]

    def materialize(self, requests=None) -> np.ndarray:
        """The ``(batch, ...)`` input array: the requests' samples stacked.

        ``requests`` restricts the fused input to a subset (the live
        requests after deadline expiry pruning), so expired rows never reach
        the estimator; the default is the whole batch.
        """
        if requests is None:
            requests = self.requests
        return np.stack([request.array for request in requests])


class _Group:
    __slots__ = ("requests", "deadline")

    def __init__(self):
        self.requests: list[Request] = []
        self.deadline = 0.0


class MicroBatcher:
    """Group-keyed pending queues with size/deadline/drain flush triggers."""

    def __init__(
        self,
        *,
        max_batch: int,
        max_wait_s: float,
        stats: ServerStats | None = None,
        clock=time.perf_counter,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_s < 0:
            raise ValueError(f"max_wait_s must be >= 0, got {max_wait_s}")
        self.max_batch = int(max_batch)
        self.max_wait_s = float(max_wait_s)
        self.stats = stats if stats is not None else ServerStats()
        self._clock = clock
        self._cond = threading.Condition()
        self._groups: dict[tuple, _Group] = {}
        self._ready: deque[MicroBatch] = deque()
        self._closed = False

    def submit(
        self,
        key: tuple,
        op: str,
        sample: np.ndarray,
        *,
        deadline_s: float | None = None,
        max_pending: int | None = None,
    ) -> Request:
        """Enqueue a private copy of one sample under ``key``; returns the
        pending request.

        ``deadline_s`` (relative, seconds) stamps an absolute expiry on the
        request; the server's worker loop drops expired requests before the
        fused call so they never occupy a batch slot.  With ``max_pending``
        set, a request arriving while that many are pending raises
        :class:`ServerOverloadedError` instead; the check and the enqueue
        share one critical section, so racing submitters cannot overshoot
        the bound.
        """
        array = np.array(sample, copy=True, order="C")
        now = self._clock()
        deadline_at = now + float(deadline_s) if deadline_s is not None else None
        with self._cond:
            if self._closed:
                raise RuntimeError("batcher is closed; no new requests accepted")
            pending = self.pending_count()
            if max_pending is not None and pending >= max_pending:
                self.stats.increment("shed_requests")
                raise ServerOverloadedError(pending, max_pending)
            group = self._groups.get(key)
            if group is None:
                group = self._groups[key] = _Group()
            request = Request(op, array, now, deadline_at)
            group.requests.append(request)
            if len(group.requests) == 1:
                group.deadline = now + self.max_wait_s
            self.stats.increment("requests")
            self.stats.observe_max("pending", pending + 1)
            if len(group.requests) >= self.max_batch:
                self._seal(key, "size")
            self._cond.notify()
        return request

    @property
    def clock(self):
        """The batcher's time source — deadlines must be judged by it."""
        return self._clock

    def pending_count(self) -> int:
        """Requests accepted but not yet handed to a worker."""
        with self._cond:
            queued = sum(len(group.requests) for group in self._groups.values())
            ready = sum(len(batch.requests) for batch in self._ready)
        return queued + ready

    def _seal(self, key: tuple, trigger: str) -> None:
        group = self._groups.pop(key)
        batch = MicroBatch(key, group.requests, trigger)
        self._ready.append(batch)
        self.stats.increment("batches")
        self.stats.increment(f"{trigger}_flushes")
        self.stats.increment("batched_samples", len(batch.requests))

    def next_batch(self) -> MicroBatch | None:
        """Block until a batch is ready; ``None`` means closed and drained.

        Workers park here: a ready batch is handed over immediately, else the
        worker waits until the earliest group deadline (sealing it itself on
        expiry) or a submit/close notification, whichever comes first.
        """
        with self._cond:
            while True:
                if self._ready:
                    return self._ready.popleft()
                if self._closed and not self._groups:
                    return None
                wait_for = None
                if self._groups:
                    due_key = min(self._groups, key=lambda k: self._groups[k].deadline)
                    remaining = self._groups[due_key].deadline - self._clock()
                    if remaining <= 0:
                        self._seal(due_key, "deadline")
                        continue
                    wait_for = remaining
                self._cond.wait(wait_for)

    def close(self) -> None:
        """Stop accepting requests and drain pending groups to the workers."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            for key in list(self._groups):
                self._seal(key, "drain")
            self._cond.notify_all()
