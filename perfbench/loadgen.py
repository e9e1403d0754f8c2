"""The benchmark's own open-loop load generator.

Requests follow a schedule fixed before the rung starts — Poisson arrivals
drawn from the workload seed, i.e. independent clients — so a slow server
receives the same offered load as a fast one and its queue can grow.  Each
request is timed from its *scheduled* send, which charges the server for the
wait a stall imposes on later requests; how late the generator itself sent
is reported separately.  Every scheduled request ends ok, failed, shed or
unsent.  The generator lives with the benchmark, not in ``repro.serving``,
so a change to the program cannot move the measuring tool.

An optional in-flight limit holds sends while that many requests are
unanswered: a held request goes out late, and its latency, counted from its
scheduled send, still carries the wait.  A rung past its end plus a grace
period stops sending; what is left stays unsent.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

#: request outcomes; ``UNSENT`` requests were still held when the rung stopped
UNSENT, OK, FAILED, SHED = 0, 1, 2, 3
#: the generator is one process with at most this many sender threads
MAX_THREADS = 2


def poisson_offsets(rate: float, duration_s: float, rng: np.random.Generator) -> np.ndarray:
    """Send times, in seconds from the rung start, of Poisson arrivals at ``rate``."""
    expected = rate * duration_s
    gaps = rng.exponential(1.0 / rate, size=int(expected + 6.0 * expected**0.5) + 16)
    offsets = np.cumsum(gaps)
    return offsets[offsets < duration_s]


@dataclass
class RungResult:
    """Per-request record of one rung; times are readings of the generator's clock."""

    rate: float
    start: float
    duration_s: float
    scheduled: np.ndarray
    #: NaN for requests never sent
    sent: np.ndarray
    #: +inf for requests never answered
    done: np.ndarray
    outcome: np.ndarray
    #: thread that settled each request (a server worker for answered ones)
    done_thread: np.ndarray
    #: the rung ran out of time with requests still held back
    stopped: bool = False
    #: responses of the requests asked to be kept, by index
    results: dict = field(default_factory=dict)

    def count(self, outcome: int) -> int:
        return int(np.count_nonzero(self.outcome == outcome))

    @property
    def attempted(self) -> int:
        """Requests the generator sent."""
        return int(self.outcome.size) - self.count(UNSENT)

    @property
    def ok(self) -> int:
        return self.count(OK)

    @property
    def failed(self) -> int:
        return self.count(FAILED)

    @property
    def shed(self) -> int:
        return self.count(SHED)

    def latencies_s(self) -> np.ndarray:
        """Scheduled send to response, in seconds, of every successful request."""
        mask = self.outcome == OK
        return self.done[mask] - self.scheduled[mask]

    def lateness_s(self) -> np.ndarray:
        """How late the generator sent each request it sent, in seconds."""
        mask = ~np.isnan(self.sent)
        return self.sent[mask] - self.scheduled[mask]

    def share_within(self, limit_s: float) -> float:
        """Share of the scheduled requests answered within ``limit_s`` of their
        scheduled send; failed, shed and unsent requests count as misses."""
        within = np.count_nonzero((self.outcome == OK) & (self.done - self.scheduled <= limit_s))
        return within / self.outcome.size if self.outcome.size else 1.0


def run_open_loop(
    submit,
    offsets,
    *,
    rate: float,
    duration_s: float,
    n_threads: int = MAX_THREADS,
    shed_errors: tuple = (),
    keep=(),
    max_outstanding: int | None = None,
    grace_s: float = 1.0,
    timeout_s: float = 30.0,
    clock=time.perf_counter,
    sleep=time.sleep,
    lead_s: float = 0.005,
) -> RungResult:
    """Call ``submit(index)`` at each scheduled offset; return the per-request record.

    ``submit`` returns a ``concurrent.futures.Future`` or raises: exceptions
    in ``shed_errors`` count as shed, any other as failed, as does a future
    that resolves with an exception or is still unresolved ``timeout_s``
    after the last send.  Responses of the indices in ``keep`` are kept for
    output checks.  While ``max_outstanding`` requests are unsettled, sends
    wait; once the rung is ``grace_s`` past its end, held requests stay
    unsent.
    """
    if not 1 <= n_threads <= MAX_THREADS:
        raise ValueError(f"n_threads must be between 1 and {MAX_THREADS}, got {n_threads}")
    n = len(offsets)
    start = clock() + lead_s
    result = RungResult(
        rate=float(rate),
        start=start,
        duration_s=float(duration_s),
        scheduled=start + np.asarray(offsets, dtype=np.float64),
        sent=np.full(n, np.nan),
        done=np.full(n, np.inf),
        outcome=np.full(n, UNSENT, dtype=np.int8),
        done_thread=np.zeros(n, dtype=np.int64),
    )
    keep = frozenset(int(index) for index in keep)
    cond = threading.Condition()
    state = {"next": 0, "open": 0}
    give_up_at = start + duration_s + grace_s

    def settle(index: int, status: int, when: float, value=None) -> None:
        with cond:
            if result.outcome[index] != UNSENT:  # already counted as timed out
                return
            result.outcome[index] = status
            result.done[index] = when
            result.done_thread[index] = threading.get_ident()
            if value is not None:
                result.results[index] = value
            state["open"] -= 1
            if state["open"] == 0:
                cond.notify_all()

    def answered(index: int):
        def callback(future) -> None:
            when = clock()
            if future.cancelled() or future.exception() is not None:
                settle(index, FAILED, when)
            else:
                settle(index, OK, when, future.result() if index in keep else None)

        return callback

    def sender() -> None:
        while True:
            with cond:
                index = state["next"]
                if index >= n or result.stopped:
                    return
                held = max_outstanding is not None and state["open"] >= max_outstanding
                if held and clock() > give_up_at:
                    result.stopped = True
                    return
                if not held:
                    state["next"] += 1
                    state["open"] += 1
            if held:
                sleep(0.0005)
                continue
            delay = result.scheduled[index] - clock()
            if delay > 0:
                sleep(delay)
            result.sent[index] = clock()
            try:
                future = submit(index)
            except shed_errors:
                settle(index, SHED, clock())
                continue
            except Exception:  # a failed request; the schedule goes on
                settle(index, FAILED, clock())
                continue
            future.add_done_callback(answered(index))

    threads = [
        threading.Thread(target=sender, name=f"perfbench-loadgen-{number}", daemon=True)
        for number in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=duration_s + timeout_s)
    with cond:
        cond.wait_for(lambda: state["open"] <= 0, timeout=timeout_s)
        unanswered = (result.outcome == UNSENT) & ~np.isnan(result.sent)
        result.outcome[unanswered] = FAILED
    return result
