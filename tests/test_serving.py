"""Tier-1 smoke suite for ``repro.serving`` (the micro-batching front door).

Covers the ISSUE 6 serving contract: responses bit-identical to direct
``predict`` / ``predict_proba`` / ``encode``, the deadline trigger flushing a
lone queued request, hot ``reload`` under load losing nothing, and the
batcher/transport mechanics (size flush, group keying, slab reuse, drain on
close).  A fake deterministic clock drives the pure-batcher tests so nothing
here sleeps for correctness.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.api import load_estimator, make_estimator, serve
from repro.core.config import AimTSConfig, FineTuneConfig
from repro.nn.arena import active_arena
from repro.nn.tensor import get_default_dtype, is_grad_enabled
from repro.serving import (
    MicroBatcher,
    ModelServer,
    SampleSlab,
    ServerStats,
    SlabPool,
)


# --------------------------------------------------------------------------- #
# shared fitted model (expensive: pretrain + fine-tune once per module)
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def bundle_path(tmp_path_factory):
    from repro.data.archives import make_dataset
    from repro.utils.seeding import seed_everything

    seed_everything(3407)
    config = AimTSConfig(
        repr_dim=16,
        proj_dim=8,
        hidden_channels=8,
        depth=1,
        panel_size=16,
        series_length=48,
        n_variables=1,
        batch_size=8,
        epochs=1,
        seed=3407,
    )
    dataset = make_dataset(
        "serving_unit", "ecg", n_classes=2, n_train=16, n_test=12, length=48, n_variables=1, seed=0
    )
    model = make_estimator("aimts", config=config)
    model.pretrain(np.random.default_rng(0).normal(size=(16, 1, 48)))
    model.fine_tune(dataset, FineTuneConfig(epochs=1, batch_size=8, seed=3407))
    path = model.save(tmp_path_factory.mktemp("bundle") / "served.npz")
    return path


@pytest.fixture(scope="module")
def test_X(bundle_path):
    return np.random.default_rng(7).normal(size=(12, 1, 48))


@pytest.fixture(scope="module")
def direct(bundle_path, test_X):
    estimator = load_estimator(bundle_path)
    return {
        "predict": estimator.predict(test_X),
        "predict_proba": estimator.predict_proba(test_X),
        "encode": estimator.encode(test_X),
    }


# --------------------------------------------------------------------------- #
# micro-batcher mechanics (fake clock, no server)
# --------------------------------------------------------------------------- #
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestMicroBatcher:
    def test_size_trigger_seals_at_max_batch(self):
        clock = FakeClock()
        batcher = MicroBatcher(max_batch=3, max_wait_s=10.0, clock=clock)
        key = ("proba", (1, 8), "float64")
        for _ in range(3):
            batcher.submit(key, "predict", np.zeros((1, 8)))
        batch = batcher.next_batch()
        assert batch.trigger == "size"
        assert len(batch.requests) == 3
        assert batcher.stats.get("size_flushes") == 1

    def test_deadline_trigger_flushes_single_request(self):
        clock = FakeClock()
        batcher = MicroBatcher(max_batch=256, max_wait_s=0.002, clock=clock)
        request = batcher.submit(("proba", (1, 8), "float64"), "predict", np.zeros((1, 8)))
        clock.now = 0.01  # past the deadline: next_batch seals without help
        batch = batcher.next_batch()
        assert batch.trigger == "deadline"
        assert batch.requests == [request]
        assert batcher.stats.get("deadline_flushes") == 1

    def test_group_key_separates_shapes_and_ops(self):
        clock = FakeClock()
        batcher = MicroBatcher(max_batch=2, max_wait_s=10.0, clock=clock)
        batcher.submit(("proba", (1, 8), "float64"), "predict", np.zeros((1, 8)))
        batcher.submit(("encode", (1, 8), "float64"), "encode", np.zeros((1, 8)))
        batcher.submit(("proba", (2, 8), "float64"), "predict", np.zeros((2, 8)))
        assert batcher.pending_count() == 3
        batcher.submit(("proba", (1, 8), "float64"), "predict_proba", np.ones((1, 8)))
        batch = batcher.next_batch()  # only the (proba, (1,8)) group reached size 2
        assert batch.key == ("proba", (1, 8), "float64")
        assert [request.op for request in batch.requests] == ["predict", "predict_proba"]

    def test_batch_materializes_in_submission_order(self):
        clock = FakeClock()
        pool = SlabPool(2)
        batcher = MicroBatcher(max_batch=4, max_wait_s=10.0, slab_pool=pool, clock=clock)
        key = ("proba", (1, 4), "float64")
        samples = [np.full((1, 4), float(i)) for i in range(4)]
        for sample in samples:
            batcher.submit(key, "predict", sample)
        batch = batcher.next_batch()
        X = batch.materialize()
        np.testing.assert_array_equal(X, np.stack(samples))
        batch.release(pool)
        pool.close()

    def test_close_drains_pending_and_rejects_new(self):
        clock = FakeClock()
        batcher = MicroBatcher(max_batch=256, max_wait_s=10.0, clock=clock)
        batcher.submit(("proba", (1, 8), "float64"), "predict", np.zeros((1, 8)))
        batcher.close()
        batch = batcher.next_batch()
        assert batch.trigger == "drain"
        assert len(batch.requests) == 1
        assert batcher.next_batch() is None  # closed + drained
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit(("proba", (1, 8), "float64"), "predict", np.zeros((1, 8)))

    def test_worker_blocks_until_deadline_with_real_clock(self):
        # the one timed test: a lone request must come back within ~max_wait
        batcher = MicroBatcher(max_batch=256, max_wait_s=0.01)
        result = {}

        def worker():
            result["batch"] = batcher.next_batch()

        thread = threading.Thread(target=worker, daemon=True)
        thread.start()
        batcher.submit(("proba", (1, 8), "float64"), "predict", np.zeros((1, 8)))
        thread.join(timeout=5.0)
        assert result["batch"] is not None
        assert result["batch"].trigger == "deadline"


# --------------------------------------------------------------------------- #
# slab transport
# --------------------------------------------------------------------------- #
class TestSlabTransport:
    def test_contiguous_appends_form_one_batch_view(self):
        slab = SampleSlab()
        samples = [np.full((2, 8), float(i)) for i in range(3)]
        descriptors = [slab.append(s, capacity_samples=4) for s in samples]
        assert all(d is not None for d in descriptors)
        batch = slab.batch_view(descriptors)
        assert batch is not None and batch.shape == (3, 2, 8)
        np.testing.assert_array_equal(batch, np.stack(samples))
        slab.close()

    def test_heterogeneous_descriptors_fall_back_to_none(self):
        slab = SampleSlab()
        a = slab.append(np.zeros((2, 8)), capacity_samples=4)
        b = slab.append(np.zeros((2, 8), dtype=np.float32), capacity_samples=4)
        assert slab.batch_view([a, b]) is None
        slab.close()

    def test_recycled_slab_reuses_storage(self):
        slab = SampleSlab()
        slab.append(np.zeros((2, 8)), capacity_samples=4)
        capacity = slab._arena.capacity
        slab.recycle()
        slab.append(np.ones((2, 8)), capacity_samples=4)
        assert slab._arena.capacity == capacity  # no regrow for like-sized batch
        slab.close()

    def test_pool_bounds_and_recycles(self):
        pool = SlabPool(1)
        first = pool.try_acquire()
        assert first is not None
        assert pool.try_acquire() is None  # exhausted: caller falls back to copies
        pool.release(first)
        assert pool.try_acquire() is first
        pool.release(first)
        pool.close()
        assert pool.try_acquire() is None  # closed pools hand out nothing


# --------------------------------------------------------------------------- #
# the server itself, against a real fitted bundle
# --------------------------------------------------------------------------- #
class TestModelServer:
    def test_responses_bit_identical_to_direct_calls(self, bundle_path, test_X, direct):
        with ModelServer.from_bundle(
            bundle_path, max_batch=4, max_wait_ms=5.0, n_workers=2
        ) as server:
            futures = {
                op: [server.submit(x, op=op) for x in test_X]
                for op in ("predict", "predict_proba", "encode")
            }
            got_predict = np.asarray([f.result(timeout=60) for f in futures["predict"]])
            got_proba = np.stack([f.result(timeout=60) for f in futures["predict_proba"]])
            got_encode = np.stack([f.result(timeout=60) for f in futures["encode"]])
        assert np.array_equal(got_predict, direct["predict"])
        assert np.array_equal(got_proba, direct["predict_proba"])
        assert np.array_equal(got_encode, direct["encode"])

    def test_concurrent_submitters_stay_bit_identical(self, bundle_path, test_X, direct):
        with ModelServer.from_bundle(
            bundle_path, max_batch=8, max_wait_ms=2.0, n_workers=2
        ) as server:
            results: dict[int, np.ndarray] = {}
            lock = threading.Lock()

            def submitter(offset: int) -> None:
                for index in range(offset, len(test_X), 3):
                    value = server.submit(test_X[index], op="predict_proba").result(timeout=60)
                    with lock:
                        results[index] = value

            threads = [threading.Thread(target=submitter, args=(o,)) for o in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        got = np.stack([results[i] for i in range(len(test_X))])
        assert np.array_equal(got, direct["predict_proba"])

    def test_worker_scopes_never_reach_the_caller_thread(self, bundle_path, test_X, direct):
        # each worker runs forward under no_grad, the model dtype and its
        # replica's arena; those scopes are per thread, so the main thread
        # reads the defaults while the workers answer and after they stop
        observed = set()
        with ModelServer.from_bundle(
            bundle_path, max_batch=4, max_wait_ms=1.0, n_workers=2
        ) as server:
            results: dict[int, np.ndarray] = {}
            lock = threading.Lock()

            def submitter(offset: int) -> None:
                for _ in range(3):
                    for index in range(offset, len(test_X), 2):
                        value = server.submit(test_X[index], op="predict_proba").result(timeout=60)
                        with lock:
                            results[index] = value

            threads = [threading.Thread(target=submitter, args=(o,)) for o in range(2)]
            for thread in threads:
                thread.start()
            while any(thread.is_alive() for thread in threads):
                observed.add((is_grad_enabled(), get_default_dtype(), active_arena()))
                threads[0].join(timeout=0.001)
            for thread in threads:
                thread.join(timeout=60)
            assert server.stats()["responses"] == 3 * len(test_X)
        observed.add((is_grad_enabled(), get_default_dtype(), active_arena()))
        assert observed == {(True, np.dtype(np.float64), None)}
        got = np.stack([results[i] for i in range(len(test_X))])
        assert np.array_equal(got, direct["predict_proba"])

    def test_deadline_flush_fires_for_single_queued_request(self, bundle_path, test_X, direct):
        # max_batch far above 1: only the deadline can flush a lone request
        with ModelServer.from_bundle(
            bundle_path, max_batch=256, max_wait_ms=5.0, n_workers=1
        ) as server:
            value = server.submit(test_X[0], op="predict").result(timeout=60)
            stats = server.stats()
        assert value == direct["predict"][0]
        assert stats["deadline_flushes"] >= 1
        assert stats.get("size_flushes", 0) == 0

    def test_reload_mid_stream_loses_no_requests(self, bundle_path, test_X, direct):
        with ModelServer.from_bundle(
            bundle_path, max_batch=4, max_wait_ms=1.0, n_workers=2
        ) as server:
            stop = threading.Event()
            failures: list[str] = []
            completed = [0]

            def hammer() -> None:
                index = 0
                while not stop.is_set():
                    i = index % len(test_X)
                    value = server.submit(test_X[i], op="predict").result(timeout=60)
                    if value != direct["predict"][i]:
                        failures.append(f"request {i}: got {value}")
                    completed[0] += 1
                    index += 1

            threads = [threading.Thread(target=hammer) for _ in range(2)]
            for thread in threads:
                thread.start()
            for _ in range(3):  # swap the bundle repeatedly under live traffic
                server.reload(bundle_path)
            stop.set()
            for thread in threads:
                thread.join(timeout=60)
            stats = server.stats()
        assert not failures
        assert server.model_version == 3
        assert completed[0] > 0
        assert stats["responses"] == stats["requests"]  # zero dropped
        assert stats.get("errors", 0) == 0

    def test_close_answers_accepted_requests_and_is_idempotent(self, bundle_path, test_X):
        server = ModelServer.from_bundle(
            bundle_path, max_batch=256, max_wait_ms=50.0, n_workers=1
        ).start()
        futures = [server.submit(x, op="predict") for x in test_X[:4]]
        server.close()  # drain flush: all four must resolve
        assert all(f.result(timeout=60) is not None for f in futures)
        server.close()  # second close: silent no-op
        with pytest.raises(RuntimeError, match="not running"):
            server.submit(test_X[0])

    def test_submit_validates_op_and_shape(self, bundle_path):
        with ModelServer.from_bundle(bundle_path, n_workers=1) as server:
            with pytest.raises(ValueError, match="unknown op"):
                server.submit(np.zeros((1, 48)), op="classify")
            with pytest.raises(ValueError, match="sample"):
                server.submit(np.zeros((2, 1, 48)))
        with pytest.raises(RuntimeError, match="not running"):
            server.submit(np.zeros((1, 48)))

    def test_univariate_1d_sample_promoted(self, bundle_path, test_X, direct):
        with ModelServer.from_bundle(bundle_path, max_wait_ms=2.0, n_workers=1) as server:
            value = server.submit(test_X[0][0], op="predict").result(timeout=60)
        assert value == direct["predict"][0]

    def test_worker_error_scatters_to_futures_and_server_survives(self, bundle_path, test_X):
        with ModelServer.from_bundle(
            bundle_path, max_batch=2, max_wait_ms=2.0, n_workers=1
        ) as server:
            bad = server.submit(np.zeros((3, 48)), op="predict")  # wrong n_variables
            with pytest.raises(Exception):
                bad.result(timeout=60)
            good = server.submit(test_X[0], op="predict").result(timeout=60)
            assert good is not None
            assert server.stats().get("errors", 0) >= 1

    def test_api_serve_builds_started_server(self, bundle_path, test_X, direct):
        with serve(bundle_path, max_wait_ms=2.0, n_workers=1) as server:
            assert isinstance(server, ModelServer)
            assert np.array_equal(server.predict(test_X), direct["predict"])
        unstarted = serve(bundle_path, start=False, n_workers=1)
        with pytest.raises(RuntimeError, match="not running"):
            unstarted.submit(test_X[0])
        unstarted.close()


class TestServerStats:
    def test_counters_and_maxima(self):
        stats = ServerStats()
        stats.increment("requests")
        stats.increment("requests", 4)
        stats.observe_max("pending", 3)
        stats.observe_max("pending", 2)
        snapshot = stats.snapshot()
        assert snapshot["requests"] == 5
        assert snapshot["max_pending"] == 3
        assert stats.get("missing") == 0
