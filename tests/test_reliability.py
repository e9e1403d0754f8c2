"""Chaos suite: deterministic fault injection across the whole pipeline.

Every test here is tier-1: faults fire at exact ``(site, invocation_index)``
pairs from a seeded :class:`~repro.utils.faults.FaultPlan`, backoff runs on a
recording fake sleep, and the pass criteria are exact — the PR 9 reliability
contract is that recovery is *bit-identical*, not merely "it didn't crash".

Covered: the fault-plan mechanics themselves, restart-policy determinism,
producer/worker crash + respawn with replayed steps (AimTS and SimCLR loss
curves ``==`` the no-fault run), restart-budget exhaustion degrading to the
inline path with a recorded warning, serving overload shedding (also under
racing submitters) / deadline expiry / dead-worker replacement / the
submit-time sample copy, corpus read retries + quarantine, and atomic
bundle/checkpoint writes surviving an injected crash.

The chaos stress workflow (``.github/workflows/chaos.yml``) reruns this file
with randomized fault seeds via ``REPRO_CHAOS_SEED``.
"""

from __future__ import annotations

import os
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from repro.api.bundle import load_bundle, save_bundle
from repro.baselines import BaselineConfig, SimCLR, TLoss
from repro.core.config import AimTSConfig
from repro.core.pretrainer import AimTSPretrainer
from repro.data.corpus import CorpusReadError, CorpusWriter, ShardedCorpus
from repro.data.corpus.__main__ import main as corpus_main
from repro.engine import Callback, Checkpointer
from repro.engine.parallel import RestartPolicy
from repro.serving import (
    DeadlineExceededError,
    ModelServer,
    ServerOverloadedError,
    run_open_loop,
)
from repro.utils import faults
from repro.utils.faults import FaultPlan, InjectedFault, fault_point
from repro.utils.paths import atomic_write, atomic_write_npz

pytestmark = pytest.mark.chaos

TINY = dict(
    repr_dim=8,
    proj_dim=4,
    hidden_channels=4,
    depth=1,
    panel_size=12,
    series_length=24,
    batch_size=8,
    epochs=2,
    seed=0,
)
BASELINE_TINY = {k: v for k, v in TINY.items() if k != "panel_size"}


def tiny_pool(n=16, seed=0) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(n, 1, TINY["series_length"]))


def no_sleep(_seconds: float) -> None:
    """Fake clock for restart backoff: chaos tests never sleep for real."""


# --------------------------------------------------------------------------- #
# fault plan mechanics
# --------------------------------------------------------------------------- #
class TestFaultPlan:
    def test_disarmed_fault_point_is_a_noop(self):
        fault_point("producer.step")  # must not raise without an armed plan

    def test_fires_exactly_on_the_planned_invocation(self):
        with faults.armed(FaultPlan([("unit.site", 2)])):
            fault_point("unit.site")  # 0
            fault_point("unit.site")  # 1
            with pytest.raises(InjectedFault) as err:
                fault_point("unit.site")  # 2 — boom
            assert err.value.site == "unit.site" and err.value.index == 2
            fault_point("unit.site")  # 3: past the planned index

    def test_sites_are_counted_independently(self):
        with faults.armed(FaultPlan([("site.a", 0)])):
            fault_point("site.b")  # advances only site.b's counter
            with pytest.raises(InjectedFault):
                fault_point("site.a")

    def test_fuse_makes_a_fault_one_shot(self, tmp_path):
        plan = FaultPlan([("fused.site", 0)], scratch_dir=tmp_path)
        with faults.armed(plan):
            with pytest.raises(InjectedFault):
                fault_point("fused.site")
        # a respawned process replays invocation 0; the fuse holds
        with faults.armed(plan):
            fault_point("fused.site")
        assert (tmp_path / "fused.site@0.fuse").exists()

    def test_env_round_trip_preserves_plan(self, tmp_path):
        plan = FaultPlan([("a.b", 1), ("c.d", 0)], scratch_dir=tmp_path)
        clone = FaultPlan.from_env(plan.to_env())
        assert clone.pairs() == plan.pairs()
        assert clone.scratch_dir == str(tmp_path)

    def test_arm_exports_and_disarm_clears_env(self):
        with faults.armed(FaultPlan([("x.y", 0)])):
            assert os.environ.get(faults.PLAN_ENV_VAR)
        assert faults.PLAN_ENV_VAR not in os.environ

    def test_sampled_plans_are_seed_deterministic(self):
        a = FaultPlan.sample(faults.KNOWN_SITES, seed=7, n_faults=3)
        b = FaultPlan.sample(faults.KNOWN_SITES, seed=7, n_faults=3)
        c = FaultPlan.sample(faults.KNOWN_SITES, seed=8, n_faults=3)
        assert a.pairs() == b.pairs()
        assert len(a.pairs()) == 3
        assert a.pairs() != c.pairs()


class TestRestartPolicy:
    def test_backoff_schedule_is_deterministic_and_exponential(self):
        policy = RestartPolicy(5, backoff_base_s=0.1, backoff_factor=2.0, jitter=0.25, seed=3)
        again = RestartPolicy(5, backoff_base_s=0.1, backoff_factor=2.0, jitter=0.25, seed=3)
        delays = [policy.delay_s(k) for k in range(4)]
        assert delays == [again.delay_s(k) for k in range(4)]
        for k, delay in enumerate(delays):
            base = 0.1 * 2.0**k
            assert base <= delay <= base * 1.25

    def test_pause_uses_the_injected_sleep(self):
        slept = []
        policy = RestartPolicy(2, backoff_base_s=0.5, jitter=0.0, sleep=slept.append)
        assert policy.pause(0) == 0.5
        assert policy.pause(1) == 1.0
        assert slept == [0.5, 1.0]

    def test_zero_budget_is_valid_and_negative_is_not(self):
        assert RestartPolicy(0).max_restarts == 0
        with pytest.raises(ValueError, match="max_restarts"):
            RestartPolicy(-1)


# --------------------------------------------------------------------------- #
# self-healing pre-training: crash, respawn, bit-identical replay
# --------------------------------------------------------------------------- #
def _aimts_run(pool, *, restart=True, **knobs):
    model = AimTSPretrainer(AimTSConfig(**TINY, **knobs))
    if restart:
        model.restart_policy = RestartPolicy(3, sleep=no_sleep)
    history = model.fit(pool)
    curve = (
        tuple(history.total_loss),
        tuple(history.prototype_loss),
        tuple(history.series_image_loss),
    )
    summary = model.trainer.pipeline_summary()
    worker_restarts = model._worker_pool.restart_count if model._worker_pool else 0
    model.shutdown_workers()
    return curve, summary, worker_restarts


class TestSelfHealingPretrain:
    @pytest.fixture(scope="class")
    def pipelined_reference(self):
        curve, _, _ = _aimts_run(tiny_pool(), restart=False, n_producers=1, prefetch_depth=2)
        return curve

    def test_producer_crash_replays_bit_identically(self, pipelined_reference, tmp_path):
        with faults.armed(FaultPlan([("producer.step", 1)], scratch_dir=tmp_path)):
            curve, summary, _ = _aimts_run(tiny_pool(), n_producers=1, prefetch_depth=2)
        assert curve == pipelined_reference
        assert summary["restarts"] >= 1
        assert summary["replayed_steps"] >= 1

    def test_worker_crash_respawns_bit_identically(self, tmp_path):
        reference, _, _ = _aimts_run(tiny_pool(), restart=False, n_workers=2)
        with faults.armed(FaultPlan([("worker.reduce", 1)], scratch_dir=tmp_path)):
            curve, _, worker_restarts = _aimts_run(tiny_pool(), n_workers=2)
        assert curve == reference
        assert worker_restarts >= 1

    def test_baseline_worker_crash_respawns_bit_identically(self, tmp_path):
        # T-Loss draws the most per step (crops, permuted negatives); all of
        # it happens on the parent, so a respawned worker recomputes the
        # same shard loss and gradient
        def run(restart):
            baseline = TLoss(BaselineConfig(**BASELINE_TINY, n_workers=2))
            if restart:
                baseline.restart_policy = RestartPolicy(3, sleep=no_sleep)
            curve = list(baseline.pretrain(tiny_pool()))
            restarts = baseline._worker_pool.restart_count
            baseline.shutdown_workers()
            return curve, restarts

        reference, _ = run(restart=False)
        with faults.armed(FaultPlan([("worker.reduce", 1)], scratch_dir=tmp_path)):
            curve, restarts = run(restart=True)
        assert curve == reference
        assert restarts >= 1

    def test_budget_exhaustion_degrades_inline_with_warning(
        self, pipelined_reference, tmp_path
    ):
        model = AimTSPretrainer(AimTSConfig(**TINY, n_producers=1, prefetch_depth=2))
        model.restart_policy = RestartPolicy(0, sleep=no_sleep)
        with faults.armed(FaultPlan([("producer.step", 1)], scratch_dir=tmp_path)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                history = model.fit(tiny_pool())
        curve = (
            tuple(history.total_loss),
            tuple(history.prototype_loss),
            tuple(history.series_image_loss),
        )
        events = list(model.trainer.degradation_events)
        model.shutdown_workers()
        assert curve == pipelined_reference  # the curve survives the downgrade
        messages = [
            str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)
        ]
        assert any("inline sequential path" in message for message in messages)
        assert events and events[0]["epoch"] == 0

    def test_simclr_producer_crash_replays_bit_identically(self, tmp_path):
        def run(restart, armed_dir=None):
            baseline = SimCLR(BaselineConfig(**BASELINE_TINY, n_producers=1, prefetch_depth=2))
            if restart:
                baseline.restart_policy = RestartPolicy(3, sleep=no_sleep)
            curve = list(baseline.pretrain(tiny_pool()))
            baseline.shutdown_workers()
            return curve

        reference = run(restart=False)
        with faults.armed(FaultPlan([("producer.step", 1)], scratch_dir=tmp_path)):
            crashed = run(restart=True)
        assert crashed == reference


# --------------------------------------------------------------------------- #
# pool children killed from outside (SIGKILL, the OOM killer)
# --------------------------------------------------------------------------- #
def _kill(process) -> None:
    """SIGKILL a child: no Python unwinding, so a queue lock it holds (an idle
    child blocks in ``Queue.get()``) is never released."""
    process.kill()
    process.join(timeout=10.0)
    assert not process.is_alive()


class _CutPoolTimeouts(Callback):
    """A recovery that hangs fails after 10 s instead of the default 120 s."""

    def on_fit_start(self, trainer):
        for pool in (trainer.worker_pool, trainer.producer_pool):
            if pool is not None:
                pool.timeout = 10.0


class _KillWorkerZeroAtEpochOne(_CutPoolTimeouts):
    def on_epoch_start(self, trainer, epoch):
        if epoch == 1:
            _kill(trainer.worker_pool._processes[0])


class _KillProducerAfterEpochZero(_CutPoolTimeouts):
    def on_epoch_end(self, trainer, logs):
        if trainer.state.epoch == 1:
            (process,) = trainer.producer_pool._processes.values()
            _kill(process)


def _killed_run(kill: Callback | None = None, **knobs) -> dict:
    """A TINY AimTS fit, with a pool child killed by ``kill`` when given."""
    model = AimTSPretrainer(AimTSConfig(**TINY, **knobs))
    model.restart_policy = RestartPolicy(2, sleep=no_sleep)
    try:
        history = model.fit(tiny_pool(), callbacks=[kill] if kill is not None else [])
        pool = model._worker_pool or model._producer_pool
        return {
            "curve": (
                tuple(history.total_loss),
                tuple(history.prototype_loss),
                tuple(history.series_image_loss),
            ),
            "restarts": pool.restart_count,
            "degradations": list(model.trainer.degradation_events),
            "state": {
                f"{name}.{key}": value
                for name, module in model.trainer.loop.named_modules().items()
                for key, value in module.state_dict().items()
            },
        }
    finally:
        model.shutdown_workers()


class TestKilledChildren:
    @pytest.fixture(scope="class")
    def worker_runs(self):
        return _killed_run(n_workers=2), _killed_run(_KillWorkerZeroAtEpochOne(), n_workers=2)

    def test_killed_worker_is_replaced(self, worker_runs):
        reference, killed = worker_runs
        assert killed["restarts"] == 1
        assert killed["curve"] == reference["curve"]

    def test_replacement_worker_keeps_bn_running_stats(self, worker_runs):
        # the parent adopts worker 0's buffers at every epoch end, so a
        # replacement that restarted them from initialisation would show here
        reference, killed = worker_runs
        assert killed["state"].keys() == reference["state"].keys()
        for key, value in reference["state"].items():
            np.testing.assert_array_equal(killed["state"][key], value, err_msg=key)

    def test_killed_producer_is_replaced(self):
        reference = _killed_run(n_producers=1, prefetch_depth=2)
        killed = _killed_run(_KillProducerAfterEpochZero(), n_producers=1, prefetch_depth=2)
        assert killed["restarts"] == 1
        assert killed["degradations"] == []
        assert killed["curve"] == reference["curve"]


# --------------------------------------------------------------------------- #
# serving: overload shedding, deadlines, dead-worker replacement
# --------------------------------------------------------------------------- #
class EchoEstimator:
    """Deterministic single-replica estimator with an optional worker gate."""

    def __init__(self):
        self.gate: threading.Event | None = None
        self.batch_sizes: list[int] = []

    def _maybe_block(self) -> None:
        if self.gate is not None:
            assert self.gate.wait(timeout=10.0), "test gate never opened"

    def predict_proba(self, X) -> np.ndarray:
        self._maybe_block()
        X = np.asarray(X)
        self.batch_sizes.append(X.shape[0])
        level = 1.0 / (1.0 + np.exp(-X.sum(axis=(1, 2))))
        return np.stack([level, 1.0 - level], axis=1)

    def encode(self, X) -> np.ndarray:
        self._maybe_block()
        X = np.asarray(X)
        self.batch_sizes.append(X.shape[0])
        return X.sum(axis=2)


def _wait_until(predicate, timeout_s=5.0) -> None:
    deadline = time.perf_counter() + timeout_s
    while not predicate():
        assert time.perf_counter() < deadline, "condition never became true"
        time.sleep(0.001)


class TestServingReliability:
    def test_overload_sheds_and_accepted_requests_stay_bitwise_correct(self):
        estimator = EchoEstimator()
        estimator.gate = threading.Event()
        samples = [np.full((1, 8), fill) for fill in (0.1, 0.2, 0.3, 0.4, 0.5)]
        with ModelServer(
            estimator, max_batch=1, max_wait_ms=50.0, n_workers=1, max_pending=3
        ) as server:
            first = server.submit(samples[0], op="predict_proba")
            # the lone worker takes the first batch and blocks inside the gate
            _wait_until(lambda: server._batcher.pending_count() == 0)
            queued = [server.submit(s, op="predict_proba") for s in samples[1:4]]
            with pytest.raises(ServerOverloadedError) as err:
                server.submit(samples[4], op="predict_proba")
            assert err.value.pending >= err.value.max_pending == 3
            estimator.gate.set()
            results = [f.result(timeout=10.0) for f in [first, *queued]]
        reference = EchoEstimator()
        for sample, row in zip(samples[:4], results):
            np.testing.assert_array_equal(
                row, reference.predict_proba(sample[None])[0]
            )
        assert server.stats()["shed_requests"] == 1

    def test_expired_deadline_never_occupies_a_batch_slot(self):
        estimator = EchoEstimator()
        estimator.gate = threading.Event()
        with ModelServer(
            estimator, max_batch=1, max_wait_ms=50.0, n_workers=1
        ) as server:
            live = server.submit(np.ones((1, 8)), op="predict_proba")
            _wait_until(lambda: server._batcher.pending_count() == 0)
            doomed = server.submit(
                np.full((1, 8), 2.0), op="predict_proba", deadline_ms=0.0
            )
            estimator.gate.set()
            live.result(timeout=10.0)
            with pytest.raises(DeadlineExceededError):
                doomed.result(timeout=10.0)
            stats = server.stats()
        assert stats["deadline_expired"] == 1
        assert estimator.batch_sizes == [1]  # the doomed sample never ran

    def test_dead_worker_thread_is_replaced_on_submit(self, tmp_path):
        estimator = EchoEstimator()
        with faults.armed(FaultPlan([("server.worker", 0)], scratch_dir=tmp_path)):
            with ModelServer(
                estimator, max_batch=1, max_wait_ms=5.0, n_workers=1
            ) as server:
                _wait_until(lambda: not server._threads[0].is_alive())
                future = server.submit(np.ones((1, 8)), op="predict_proba")
                row = future.result(timeout=10.0)
                stats = server.stats()
        np.testing.assert_array_equal(row, EchoEstimator().predict_proba(np.ones((1, 1, 8)))[0])
        assert stats["worker_deaths"] == 1
        assert stats["worker_restarts"] == 1

    def test_open_loop_counts_shed_and_retries_deterministically(self):
        estimator = EchoEstimator()
        estimator.gate = threading.Event()
        samples = [np.ones((1, 8))]
        with ModelServer(
            estimator, max_batch=1, max_wait_ms=50.0, n_workers=1, max_pending=1
        ) as server:
            stuck = server.submit(samples[0], op="predict")
            _wait_until(lambda: server._batcher.pending_count() == 0)
            filler = server.submit(samples[0], op="predict")  # queue now full
            report = run_open_loop(
                server,
                samples,
                rate_rps=100.0,
                duration_s=0.05,
                op="predict",
                n_submitters=1,
                max_retries=2,
                retry_backoff_s=0.0005,
            )
            estimator.gate.set()
            stuck.result(timeout=10.0)
            filler.result(timeout=10.0)
        assert report.n_shed == report.n_requests  # queue was wedged shut
        assert report.n_retries == 2 * report.n_requests
        assert report.n_completed == 0 and report.n_errors == 0
        record = report.as_record()
        for key in ("n_shed", "n_retries", "n_deadline_expired", "goodput_rps"):
            assert key in record

    def test_open_loop_goodput_on_a_healthy_server(self):
        estimator = EchoEstimator()
        with ModelServer(estimator, max_batch=4, max_wait_ms=1.0, n_workers=1) as server:
            report = run_open_loop(
                server,
                [np.ones((1, 8))],
                rate_rps=200.0,
                duration_s=0.1,
                op="predict",
                n_submitters=1,
            )
        assert report.n_completed == report.n_requests
        assert report.n_shed == report.n_errors == 0
        assert report.goodput_rps > 0.0


def _gated_server(**server_kwargs):
    """A started one-worker server whose worker is parked inside the gate.

    The first request seals a one-sample batch; once the worker has taken
    it, nothing is pending and every later request waits in the batcher
    until the gate opens.  Returns ``(server, estimator, stuck_future)``.
    """
    estimator = EchoEstimator()
    estimator.gate = threading.Event()
    server = ModelServer(
        estimator, max_batch=1, max_wait_ms=50.0, n_workers=1, **server_kwargs
    ).start()
    stuck = server.submit(np.zeros((1, 8)), op="predict_proba")
    _wait_until(lambda: server._batcher.pending_count() == 0)
    return server, estimator, stuck


class TestServingAdmission:
    def test_racing_submitters_never_overshoot_max_pending(self):
        # admission check and enqueue are one critical section: of sixteen
        # submitters released together, exactly max_pending get in
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(8):
                server, estimator, stuck = _gated_server(max_pending=4)
                barrier = threading.Barrier(16)
                accepted, shed = [], []

                def submitter(fill: float) -> None:
                    barrier.wait(timeout=10.0)
                    try:
                        accepted.append(server.submit(np.full((1, 8), fill), op="encode"))
                    except ServerOverloadedError as error:
                        shed.append(error)

                threads = [
                    threading.Thread(target=submitter, args=(float(i),)) for i in range(16)
                ]
                try:
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=10.0)
                        assert not thread.is_alive()
                finally:
                    estimator.gate.set()
                    server.close()
                for future in [stuck, *accepted]:
                    future.result(timeout=10.0)
                assert (len(accepted), len(shed)) == (4, 12)
                assert server.stats()["shed_requests"] == 12
        finally:
            sys.setswitchinterval(switch_interval)

    def test_submit_keeps_its_own_copy_of_the_sample(self):
        server, estimator, stuck = _gated_server()
        try:
            sample = np.full((1, 8), 0.25)
            future = server.submit(sample, op="predict_proba")
            sample[...] = -3.0  # the caller reuses its buffer while the request waits
            estimator.gate.set()
            stuck.result(timeout=10.0)
            row = future.result(timeout=10.0)
        finally:
            server.close()
        expected = EchoEstimator().predict_proba(np.full((1, 1, 8), 0.25))[0]
        np.testing.assert_array_equal(row, expected)


# --------------------------------------------------------------------------- #
# corpus: read retries + quarantine
# --------------------------------------------------------------------------- #
def _write_corpus(directory, n=12, shard_size=4, labeled=True):
    rng = np.random.default_rng(5)
    X = rng.normal(size=(n, 1, 16))
    y = rng.integers(0, 3, size=n) if labeled else None
    with CorpusWriter(
        directory, X.shape[1:], dtype=X.dtype, labeled=labeled, shard_size=shard_size
    ) as writer:
        writer.append(X, y)
    return X


class TestCorpusReliability:
    def test_transient_read_fault_is_retried(self, tmp_path):
        X = _write_corpus(tmp_path / "c")
        corpus = ShardedCorpus(tmp_path / "c", read_retries=1)
        with faults.armed(FaultPlan([("corpus.read_shard", 0)])):
            out = corpus.materialize()
        np.testing.assert_array_equal(out, X)
        assert corpus.read_retry_count == 1
        assert not corpus.quarantined

    def test_exhausted_retries_raise_corpus_read_error(self, tmp_path):
        _write_corpus(tmp_path / "c")
        corpus = ShardedCorpus(tmp_path / "c", read_retries=0)
        with faults.armed(FaultPlan([("corpus.read_shard", 0)])):
            with pytest.raises(CorpusReadError, match="unreadable after 1 attempt"):
                corpus.materialize()

    def test_skip_corrupt_iterates_around_a_quarantined_shard(self, tmp_path):
        X = _write_corpus(tmp_path / "c", n=12, shard_size=4)
        (tmp_path / "c" / "shard-00001.npy").write_bytes(b"not an npy file")
        corpus = ShardedCorpus(tmp_path / "c", read_retries=0, skip_corrupt=True)
        seen = np.sort(
            np.concatenate(
                list(corpus.iter_index_batches(4, shuffle=False)) or [np.empty(0, np.int64)]
            )
        )
        expected = np.concatenate([np.arange(0, 4), np.arange(8, 12)])
        np.testing.assert_array_equal(seen, expected)
        assert list(corpus.quarantined) == [1]
        assert corpus.dropped_samples == 4
        np.testing.assert_array_equal(corpus.gather(np.arange(0, 4)), X[:4])
        with pytest.raises(CorpusReadError, match="quarantined"):
            corpus.gather(np.array([5]))

    def test_cli_verify_quarantine_moves_shards_and_updates_manifest(
        self, tmp_path, capsys
    ):
        _write_corpus(tmp_path / "c", n=12, shard_size=4)
        victim = tmp_path / "c" / "shard-00001.npy"
        raw = bytearray(victim.read_bytes())
        raw[-1] ^= 0xFF  # valid npy, wrong checksum
        victim.write_bytes(raw)

        assert corpus_main(["verify", str(tmp_path / "c")]) == 1
        assert corpus_main(["verify", str(tmp_path / "c"), "--quarantine"]) == 1
        assert (tmp_path / "c" / "quarantine" / "shard-00001.npy").exists()
        assert (tmp_path / "c" / "quarantine" / "labels-00001.npy").exists()
        assert not victim.exists()

        healed = ShardedCorpus(tmp_path / "c")
        assert len(healed) == 8
        assert healed.n_shards == 2
        assert corpus_main(["verify", str(tmp_path / "c")]) == 0
        capsys.readouterr()
        assert corpus_main(["inspect", str(tmp_path / "c")]) == 0
        out = capsys.readouterr().out
        assert "quarantined" in out and "checksum mismatch" in out


# --------------------------------------------------------------------------- #
# durable state: atomic writes + checkpoint retention
# --------------------------------------------------------------------------- #
class TestAtomicWrites:
    def test_injected_crash_during_save_keeps_the_old_bundle(self, tmp_path):
        path = tmp_path / "model.npz"
        arrays = {"w": np.arange(4.0)}
        save_bundle(path, arrays, {"estimator": "unit"})
        with faults.armed(FaultPlan([("checkpoint.write", 0)])):
            with pytest.raises(InjectedFault):
                save_bundle(path, {"w": np.arange(4.0) + 1.0}, {"estimator": "unit"})
        loaded, manifest = load_bundle(path)
        np.testing.assert_array_equal(loaded["w"], arrays["w"])  # v1 survived
        assert not list(tmp_path.glob("*.tmp"))  # the temp file was cleaned up

    def test_atomic_write_text_and_npz_round_trip(self, tmp_path):
        text_path = atomic_write(tmp_path / "note.txt", lambda h: h.write("ok"), mode="w")
        assert open(text_path, encoding="utf-8").read() == "ok"
        npz_path = atomic_write_npz(tmp_path / "blob", {"a": np.ones(3)})
        assert npz_path.endswith(".npz")
        with np.load(npz_path) as archive:
            np.testing.assert_array_equal(archive["a"], np.ones(3))

    def test_checkpointer_keep_last_prunes_old_epochs(self, tmp_path):
        class StubState:
            epoch = 0

        class StubTrainer:
            state = StubState()

            def save_checkpoint(self, path):
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(f"epoch {self.state.epoch}")
                return str(path)

        trainer = StubTrainer()
        checkpointer = Checkpointer(tmp_path / "ckpt.npz", keep_last=2)
        for epoch in (1, 2, 3, 4):
            trainer.state.epoch = epoch
            checkpointer.on_epoch_end(trainer, {})
        kept = sorted(p.name for p in tmp_path.glob("ckpt.epoch*.npz"))
        assert kept == ["ckpt.epoch0003.npz", "ckpt.epoch0004.npz"]
        assert checkpointer.last_path.endswith("ckpt.epoch0004.npz")

    def test_legacy_checkpointer_overwrites_in_place(self, tmp_path):
        class StubState:
            epoch = 0

        class StubTrainer:
            state = StubState()

            def save_checkpoint(self, path):
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(f"epoch {self.state.epoch}")
                return str(path)

        trainer = StubTrainer()
        checkpointer = Checkpointer(tmp_path / "ckpt.npz")
        for epoch in (1, 2):
            trainer.state.epoch = epoch
            checkpointer.on_epoch_end(trainer, {})
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.npz"]
