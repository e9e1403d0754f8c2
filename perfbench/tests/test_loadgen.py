"""The load generator's accounting against a fake server that stalls, sheds and fails."""

from concurrent.futures import Future

import numpy as np
import pytest

from perfbench.loadgen import FAILED, OK, SHED, UNSENT, RungResult, poisson_offsets, run_open_loop


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


class Overloaded(Exception):
    pass


class FakeServer:
    """Answers at once, except: blocks the caller on ``stall``, sheds ``shed``,
    fails ``fail`` and never answers ``hang``."""

    def __init__(self, clock, *, stall=(), stall_s=0.0, shed=(), fail=(), hang=()):
        self.clock = clock
        self.stall, self.stall_s = set(stall), stall_s
        self.shed, self.fail, self.hang = set(shed), set(fail), set(hang)
        self.pending = []

    def submit(self, index):
        if index in self.stall:
            self.clock.now += self.stall_s
        if index in self.shed:
            raise Overloaded()
        future = Future()
        if index in self.fail:
            future.set_exception(RuntimeError("boom"))
        elif index in self.hang:
            self.pending.append(future)
        else:
            future.set_result(index * 10)
        return future


def _run(server, clock, n=10, **kwargs):
    return run_open_loop(
        server.submit,
        np.arange(n) * 0.01,
        rate=100.0,
        duration_s=n * 0.01,
        n_threads=1,
        shed_errors=(Overloaded,),
        clock=clock,
        sleep=clock.sleep,
        lead_s=0.0,
        **kwargs,
    )


def test_lateness_latency_and_outcomes():
    clock = FakeClock()
    server = FakeServer(clock, stall={3}, stall_s=0.05, shed={6}, fail={8})
    result = _run(server, clock, keep={0, 5})
    assert list(result.outcome) == [OK, OK, OK, OK, OK, OK, SHED, OK, FAILED, OK]
    assert (result.attempted, result.ok, result.failed, result.shed) == (10, 8, 1, 1)
    # request 3 blocks the sender for 50 ms: 4..7 go out late, 8 is on time again
    np.testing.assert_allclose(result.lateness_s(), [0, 0, 0, 0, 0.04, 0.03, 0.02, 0.01, 0, 0], atol=1e-9)
    # latency runs from the scheduled send, so the late requests pay for the stall
    np.testing.assert_allclose(result.latencies_s(), [0, 0, 0, 0.05, 0.04, 0.03, 0.01, 0], atol=1e-9)
    assert result.results == {0: 0, 5: 50}


def test_unanswered_requests_time_out_as_failed():
    clock = FakeClock()
    server = FakeServer(clock, hang={2})
    result = _run(server, clock, n=5, timeout_s=0.05)
    assert result.outcome[2] == FAILED and result.ok == 4
    assert np.isinf(result.done[2])
    server.pending[0].set_result(0)  # a late answer does not change the count
    assert result.outcome[2] == FAILED and result.ok == 4


def test_in_flight_limit_holds_sends_until_the_grace_runs_out():
    clock = FakeClock()
    server = FakeServer(clock, hang=set(range(10)))
    result = _run(server, clock, max_outstanding=3, grace_s=0.2, timeout_s=0.05)
    # three requests go out, nothing is answered, the rest wait past the grace
    assert result.stopped
    assert (result.attempted, result.count(UNSENT), result.failed) == (3, 7, 3)
    assert clock.now > 0.1 + 0.2


def test_share_within_counts_every_miss():
    n = 10
    scheduled = np.arange(n) * 0.1
    done = scheduled + np.array([0.005] * 6 + [0.05, 0.005, np.inf, np.inf])
    outcome = np.array([OK] * 8 + [FAILED, UNSENT], dtype=np.int8)
    rung = RungResult(
        rate=10.0,
        start=0.0,
        duration_s=1.0,
        scheduled=scheduled,
        sent=scheduled,
        done=done,
        outcome=outcome,
        done_thread=np.zeros(n, dtype=np.int64),
    )
    # six answered early and one on time out of ten; slow, failed, unsent miss
    assert rung.share_within(0.01) == pytest.approx(0.7)


def test_thread_count_is_capped():
    with pytest.raises(ValueError):
        run_open_loop(lambda index: None, np.zeros(1), rate=1.0, duration_s=1.0, n_threads=3)


def test_poisson_schedule_is_seeded():
    first = poisson_offsets(2000.0, 1.0, np.random.default_rng(5))
    second = poisson_offsets(2000.0, 1.0, np.random.default_rng(5))
    assert np.array_equal(first, second)
    assert 1800 < first.size < 2200
    assert first.max() < 1.0 and np.all(np.diff(first) > 0)
