"""Typed serving failures callers are expected to handle.

Both errors are *fast-fail* signals of an overloaded or slow pipeline —
they carry enough context to drive a retry policy (see
:func:`repro.serving.loadgen.run_open_loop`) without parsing messages.
"""

from __future__ import annotations


class ServerOverloadedError(RuntimeError):
    """Admission rejected: the pending queue is at ``max_pending``.

    Raised by :meth:`ModelServer.submit` from the batcher's admission
    check, which holds the same lock as the enqueue, so racing submitters
    never push the queue past the bound.  Shedding costs the caller one
    exception — no queue slot, no future.  ``pending`` and ``max_pending``
    describe the queue at rejection time.
    """

    def __init__(self, pending: int, max_pending: int):
        super().__init__(
            f"server overloaded: {pending} pending requests >= max_pending={max_pending}"
        )
        self.pending = int(pending)
        self.max_pending = int(max_pending)


class DeadlineExceededError(RuntimeError):
    """The request's deadline expired while it waited in the queue.

    Delivered through the request's future.  Expired requests are dropped
    *before* the fused call is assembled — they never occupy a batch slot,
    so a stale backlog cannot steal compute from live requests.
    """

    def __init__(self, deadline_ms: float, waited_ms: float):
        super().__init__(
            f"deadline of {deadline_ms:g} ms exceeded: request waited {waited_ms:.3f} ms"
        )
        self.deadline_ms = float(deadline_ms)
        self.waited_ms = float(waited_ms)
