"""The four lifecycle workloads, all at the default ``AimTSConfig`` / ``FineTuneConfig``.

A workload builds its inputs from the run's seed, repeats its measured work
for about ``--seconds``, checks the program's outputs and returns an
:class:`Outcome`.  Set-up — what a user pays before the first unit of work —
runs ``spec.SETUP_REPEATS`` times and its median is reported.  In the traced
run the last set-up repetition is traced, and one unit of work runs untraced
before one traced unit, so the run reports its own overhead.
"""

from __future__ import annotations

import contextlib
import gc
import resource
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from perfbench import spec
from perfbench.layers import request_waits_ms
from perfbench.loadgen import OK, poisson_offsets, run_open_loop
from perfbench.stats import MIN_BEYOND, median, tail_percentile
from perfbench.trace import Tracer

clock = time.perf_counter


@dataclass
class Context:
    """What a workload gets: the seed, the time budget, a scratch directory
    inside the checkout and, in the traced run, the tracer."""

    seed: int
    seconds: float
    tmp: Path
    tracer: Tracer | None = None

    def traced(self, on: bool = True):
        """Record spans inside the block when this is the traced run and ``on``."""
        if self.tracer is None or not on:
            return contextlib.nullcontext()
        return self.tracer.active()

    def done(self, units: list, deadline: float, last_wall: float) -> bool:
        """Stop after two units when tracing, else once another would overrun."""
        return len(units) >= 2 and (self.tracer is not None or clock() + last_wall > deadline)


@dataclass
class Outcome:
    """One workload run, ready to print and record."""

    #: end-to-end metrics under their BENCHMARK.json names
    metrics: dict
    #: the run's figures under their everyday names: name -> (value, unit)
    report: dict
    attempted: int
    failed: int
    checks: dict
    #: per-layer figures read from the program's own counters (traced runs)
    layer: dict = field(default_factory=dict)
    #: the configs the run used, hashed into its record
    configs: dict = field(default_factory=dict)


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _request_latency(seconds) -> tuple[dict, dict]:
    """``serve``'s latency metrics: p50 and ``spec.REQUEST_TAIL_PERCENTILE`` of
    the pooled requests; the report adds the p99-rule tail and its sample count."""
    ms = np.asarray(seconds, dtype=np.float64) * 1e3
    p50 = median(ms)
    tail = float(np.percentile(ms, spec.REQUEST_TAIL_PERCENTILE))
    percentile, rule_tail, n = tail_percentile(ms)
    report = {
        "latency_p50_ms": (p50, "ms"),
        f"latency_p{spec.REQUEST_TAIL_PERCENTILE}_ms": (tail, "ms"),
        f"latency_p{percentile}_ms": (rule_tail, "ms"),
        "latency_samples": (n, "count"),
    }
    return {"latency_ms": p50, "latency_tail_ms": tail}, report


def _step_latency(units) -> tuple[dict, dict]:
    """Step latency of a training run: medians over its timed units (fits) of
    each unit's mean and ``spec.TAIL_PERCENTILE`` step latency.

    On a shared machine the steps of one fit took either about 8 or about
    12.5 ms (fine-tuning), in spells of seconds, so a p50 sat between the two
    modes and jumped from one to the other; the mean moves smoothly with the
    share of slow steps, and a p90 sits in the slow mode.
    """
    ms = [np.asarray(steps, dtype=np.float64) * 1e3 for steps in units]
    mean = median([float(unit.mean()) for unit in ms])
    p50 = median([float(np.median(unit)) for unit in ms])
    tail = median([float(np.percentile(unit, spec.TAIL_PERCENTILE)) for unit in ms])
    report = {
        "step_latency_mean_ms": (mean, "ms"),
        "step_latency_p50_ms": (p50, "ms"),
        f"step_latency_p{spec.TAIL_PERCENTILE}_ms": (tail, "ms"),
        "step_latency_samples": (sum(unit.size for unit in ms), "count"),
    }
    return {"latency_ms": mean, "latency_tail_ms": tail}, report


def _finish(*, setup, samples_per_s, latency, report, checks, attempted, failed, layer, configs) -> Outcome:
    """Assemble an outcome; a failed check counts all of the run's work as failed."""
    if not all(checks.values()):
        failed = attempted
    rss = peak_rss_mb()
    metrics = {"setup_s": median(setup), "samples_per_s": samples_per_s, **latency, "peak_rss_mb": rss}
    report = {
        "setup_s": (median(setup), "s"),
        **report,
        "failed_fraction": (failed / attempted, "fraction"),
        "peak_rss_mb": (rss, "MB"),
    }
    return Outcome(metrics, report, attempted, failed, checks, layer, configs)


def _engine_counters(trainer) -> dict:
    """Step count, step-arena and pipeline counters of one fit's trainer."""
    arena = trainer.arena_stats()
    pipeline = trainer.pipeline_summary()
    return {
        "engine.steps": trainer.state.step,
        "engine.arena_misses": arena.get("misses", 0),
        "engine.arena_peak_bytes": arena.get("peak_bytes", 0),
        "engine.consumer_stall_s": pipeline.get("consumer_stall_seconds", 0.0),
        "engine.producer_occupancy": pipeline.get("producer_occupancy", 0.0),
        "engine.produce_s": pipeline.get("produce_seconds", 0.0),
        "engine.restarts": pipeline.get("restarts", 0),
    }


def _step_timer():
    """A training callback timing every step, batch fetch included."""
    from repro.engine import Callback

    class StepTimer(Callback):
        def __init__(self):
            self.seconds: list[float] = []
            self._last = 0.0

        def on_epoch_start(self, trainer, epoch):
            self._last = clock()

        def on_batch_end(self, trainer, logs):
            now = clock()
            self.seconds.append(now - self._last)
            self._last = now

    return StepTimer()


def _pretrain(ctx: Context, overrides: dict) -> Outcome:
    import repro.data.corpus as corpus_api
    from repro.core import AimTS, AimTSConfig
    from repro.utils.seeding import seed_everything

    def new_model():
        seed_everything()
        return AimTS(AimTSConfig(**overrides))

    setup = []
    for repeat in range(spec.SETUP_REPEATS):
        time.sleep(spec.SETUP_PAUSE_S)
        gc.collect()  # no collection of the last repetition's garbage inside the timing
        with ctx.traced(repeat == spec.SETUP_REPEATS - 1):
            start = clock()
            corpus = corpus_api.build_synthetic_corpus(
                ctx.tmp / f"corpus-{repeat}",
                n_samples=spec.PRETRAIN_SAMPLES,
                length=spec.SERIES_LENGTH,
                seed=ctx.seed,
            )
            model = new_model()
            setup.append(clock() - start)

    fits = []
    deadline = clock() + ctx.seconds
    while True:
        traced = ctx.tracer is not None and len(fits) == 1
        timer = _step_timer()
        seed_everything()
        with ctx.traced(traced):
            start = clock()
            history = model.pretrain(corpus, callbacks=[timer])
            wall = clock() - start
        cache = model.pretrainer.render_cache
        counters = _engine_counters(model.pretrainer.trainer)
        counters["imaging.cache_hit_rate"] = cache.stats()["hit_rate"] if cache is not None else 0.0
        model.shutdown_workers()
        curves = (history.total_loss, history.prototype_loss, history.series_image_loss)
        fits.append(
            {
                "wall": wall,
                "steps": timer.seconds,
                "curves": [list(curve) for curve in curves],
                "traced": traced,
                "counters": counters,
            }
        )
        if ctx.done(fits, deadline, wall):
            break
        model = None
        gc.collect()  # the last model is gone before the next is built and timed
        model = new_model()

    config = model.config
    timed = [fit for fit in fits if not fit["traced"]]
    checks = {
        "loss_curves_finite": bool(
            np.isfinite([v for fit in fits for curve in fit["curves"] for v in curve]).all()
        ),
        "epoch1_loss_repeats": len({fit["curves"][0][0] for fit in fits}) == 1,
    }
    samples = spec.PRETRAIN_SAMPLES * config.epochs
    rate = median([samples / fit["wall"] for fit in timed])
    latency, latency_report = _step_latency([fit["steps"] for fit in timed])
    layer = {}
    if ctx.tracer is not None:
        layer = {**fits[1]["counters"], "trace.overhead_frac": fits[1]["wall"] / fits[0]["wall"] - 1.0}
    return _finish(
        setup=setup,
        samples_per_s=rate,
        latency=latency,
        report={
            "train_samples_per_s": (rate, "samples/s"),
            **latency_report,
            "epoch1_loss": (fits[0]["curves"][0][0], "loss"),
        },
        checks=checks,
        attempted=sum(len(fit["steps"]) for fit in fits),
        failed=0,
        layer=layer,
        configs={
            "aimts": asdict(config),
            "corpus_samples": spec.PRETRAIN_SAMPLES,
            "series_length": spec.SERIES_LENGTH,
        },
    )


def pretrain(ctx: Context) -> Outcome:
    """Default-config pre-training on the inline sequential path."""
    return _pretrain(ctx, {})


def pretrain_pipelined(ctx: Context) -> Outcome:
    """The same pre-training with one producer process and a two-slot ring."""
    return _pretrain(ctx, {"n_producers": 1, "prefetch_depth": 2})


def _motion_dataset(seed: int, n_test: int):
    from repro.data.archives import make_dataset

    return make_dataset(
        "motion-8c",
        "motion",
        n_classes=spec.N_CLASSES,
        n_train=spec.FINETUNE_TRAIN,
        n_test=n_test,
        length=spec.SERIES_LENGTH,
        n_variables=spec.N_VARIABLES,
        seed=seed,
    )


def finetune_predict(ctx: Context) -> Outcome:
    """Fine-tune a loaded default bundle, then predict_proba a large held-out split."""
    import repro.api.registry as registry
    from repro.core import AimTS, AimTSConfig, FineTuneConfig
    from repro.utils.seeding import seed_everything

    dataset = _motion_dataset(ctx.seed, spec.FINETUNE_TEST)
    seed_everything()
    bundle = AimTS(AimTSConfig()).save(ctx.tmp / "aimts")  # untimed fixture: a default-config bundle
    config = FineTuneConfig()
    setup = []
    for repeat in range(spec.SETUP_REPEATS):
        time.sleep(spec.SETUP_PAUSE_S)
        gc.collect()  # no collection of the last repetition's garbage inside the timing
        with ctx.traced(repeat == spec.SETUP_REPEATS - 1):
            start = clock()
            estimator = registry.load_estimator(bundle)
            finetuner = estimator.make_finetuner(dataset.n_classes, config)
            setup.append(clock() - start)

    X, y = dataset.test.X, dataset.test.y
    reps = []
    deadline = clock() + ctx.seconds
    while True:
        traced = ctx.tracer is not None and len(reps) == 1
        timer = _step_timer()
        seed_everything()
        with ctx.traced(traced):
            start = clock()
            curve = list(finetuner.fit(dataset.train, callbacks=[timer]))
            fit_wall = clock() - start
            calls, probas = [], []
            for low in range(0, len(X), spec.PREDICT_ROWS):
                start = clock()
                probas.append(finetuner.predict_proba(X[low : low + spec.PREDICT_ROWS]))
                calls.append(clock() - start)
        counters = _engine_counters(finetuner.trainer)
        workspace = finetuner._workspace.stats()  # FineTuner has no public workspace counter
        counters["inference.workspace_bytes"] = workspace["nbytes"]
        counters["inference.workspace_misses"] = workspace["misses"]
        reps.append(
            {
                "fit_wall": fit_wall,
                "steps": timer.seconds,
                "calls": calls,
                "curve": curve,
                "accuracy": float(np.mean(np.concatenate(probas).argmax(axis=1) == y)),
                "traced": traced,
                "counters": counters,
            }
        )
        if ctx.done(reps, deadline, fit_wall + sum(calls)):
            break
        # free the last fine-tuner and its filled workspace before the next one
        # is built: left to the cyclic collector, whether it was gone yet
        # decided peak_rss_mb (665 or 868 MB from one seed to the next)
        finetuner = None
        gc.collect()
        finetuner = estimator.make_finetuner(dataset.n_classes, config)

    timed = [rep for rep in reps if not rep["traced"]]
    accuracies = {rep["accuracy"] for rep in reps}
    checks = {
        "loss_curves_finite": bool(np.isfinite([v for rep in reps for v in rep["curve"]]).all()),
        "epoch1_loss_repeats": len({rep["curve"][0] for rep in reps}) == 1,
        "accuracy_above_floor": min(accuracies) >= spec.ACCURACY_FLOOR,
        "accuracy_repeats": len(accuracies) == 1,
    }
    train_rate = median([len(dataset.train) * config.epochs / rep["fit_wall"] for rep in timed])
    predict_rate = median([len(X) / sum(rep["calls"]) for rep in timed])
    latency, latency_report = _step_latency([rep["steps"] for rep in timed])
    latency_report["predict_call_p50_ms"] = (median([c for rep in timed for c in rep["calls"]]) * 1e3, "ms")
    layer = {}
    if ctx.tracer is not None:
        untraced, traced = reps

        def wall(rep):
            return rep["fit_wall"] + sum(rep["calls"])

        layer = {**traced["counters"], "trace.overhead_frac": wall(traced) / wall(untraced) - 1.0}
    return _finish(
        setup=setup,
        samples_per_s=train_rate,
        latency=latency,
        report={
            "train_samples_per_s": (train_rate, "samples/s"),
            "predict_samples_per_s": (predict_rate, "samples/s"),
            "test_accuracy": (reps[0]["accuracy"], "fraction"),
            **latency_report,
        },
        checks=checks,
        attempted=sum(rep["counters"]["engine.steps"] + len(rep["calls"]) for rep in reps),
        failed=0,
        layer=layer,
        configs={
            "aimts": asdict(AimTSConfig()),
            "finetune": asdict(config),
            "train": spec.FINETUNE_TRAIN,
            "test": spec.FINETUNE_TEST,
            "predict_rows": spec.PREDICT_ROWS,
        },
    )


def _tail_ms(result) -> float:
    """A rung's tail latency in ms; its slowest answer when too few support a percentile."""
    latencies = result.latencies_s() * 1e3
    if latencies.size >= 2 * MIN_BEYOND:
        return tail_percentile(latencies)[1]
    return float(latencies.max()) if latencies.size else result.duration_s * 1e3


def _knee_rate(passing: int, shares: dict) -> float:
    """``max_rate_rps`` refined between the last passing and the first failing rung.

    The rate is interpolated linearly to where the share of requests within
    the limit falls to ``spec.PASS_SHARE``, so the figure moves smoothly
    instead of by whole rungs; when the next rung failed for another reason,
    it is the passing rung.
    """
    if passing < 0:
        return 0.0
    rate = float(spec.LADDER[passing])
    if passing + 1 == len(spec.LADDER):
        return rate
    following = spec.LADDER[passing + 1]
    high, low = shares[spec.LADDER[passing]], shares[following]
    if low >= spec.PASS_SHARE:
        return rate
    return rate + (following - rate) * (high - spec.PASS_SHARE) / (high - low)


def serve(ctx: Context) -> Outcome:
    """Open-loop single-sample predict_proba through ModelServer on the rate ladder."""
    import repro.api.registry as registry
    from repro.core import AimTS, AimTSConfig, FineTuneConfig
    from repro.serving import ModelServer, ServerOverloadedError
    from repro.utils.seeding import seed_everything

    dataset = _motion_dataset(ctx.seed, spec.SERVE_POOL)
    seed_everything()
    model = AimTS(AimTSConfig())
    fixture_config = FineTuneConfig(epochs=1)
    model.fine_tune(dataset, fixture_config)  # untimed fixture: a fitted default-config bundle
    bundle = model.save(ctx.tmp / "served")
    direct = registry.load_estimator(bundle, eval_mode=True)
    samples = dataset.test.X

    setup = []
    server = None
    for repeat in range(spec.SETUP_REPEATS):
        time.sleep(spec.SETUP_PAUSE_S)
        gc.collect()  # no collection of the last repetition's garbage inside the timing
        if server is not None:
            server.close()
        with ctx.traced(repeat == spec.SETUP_REPEATS - 1):
            start = clock()
            server = ModelServer.from_bundle(bundle)
            server.start()
            setup.append(clock() - start)

    rng = np.random.default_rng([ctx.seed, 1])
    saturation_s = ctx.seconds * spec.SATURATION_SHARE
    rung_s = (ctx.seconds - saturation_s) / len(spec.LADDER)

    def run_rung(rate: int, duration: float, checked: int = 0):
        offsets = poisson_offsets(rate, duration, rng)
        picks = rng.integers(0, len(samples), size=len(offsets))
        keep = rng.choice(len(offsets), size=min(checked, len(offsets)), replace=False)

        def submit(index):
            if ctx.tracer is not None:
                ctx.tracer.set_request(f"r{rate}.{index}")
            return server.submit(samples[picks[index]], op="predict_proba")

        result = run_open_loop(
            submit,
            offsets,
            rate=rate,
            duration_s=duration,
            n_threads=spec.LOADGEN_THREADS,
            shed_errors=(ServerOverloadedError,),
            keep=keep.tolist(),
            max_outstanding=spec.MAX_OUTSTANDING,
        )
        return result, picks

    def saturate(duration: float):
        """Closed loop: every request is due at once, so the generator keeps
        ``MAX_OUTSTANDING`` in flight until ``duration`` is up."""
        count = int(duration * spec.SATURATION_MAX_RPS)
        picks = rng.integers(0, len(samples), size=count)
        return run_open_loop(
            lambda index: server.submit(samples[picks[index]], op="predict_proba"),
            np.zeros(count),
            rate=0.0,
            duration_s=duration,
            n_threads=spec.LOADGEN_THREADS,
            shed_errors=(ServerOverloadedError,),
            max_outstanding=spec.MAX_OUTSTANDING,
            grace_s=0.0,
        )

    try:
        # warm-up over the same ladder: the workspace-fill allocations land in
        # peak_rss_mb instead of in the timed latencies
        for rate in spec.LADDER:
            run_rung(rate, rung_s * spec.WARMUP_SHARE)
        untraced = run_rung(spec.REFERENCE_RATE, rung_s)[0] if ctx.tracer is not None else None
        before = server.stats()
        with ctx.traced():
            rungs = [run_rung(rate, rung_s, spec.CHECKED_PER_RUNG) for rate in spec.LADDER]
        after = server.stats()
        saturated = saturate(saturation_s)
        server_config = {
            "max_batch": server.max_batch,
            "max_wait_ms": server.max_wait_ms,
            "n_workers": server.n_workers,
        }
    finally:
        server.close()

    checked = identical = 0
    for result, picks in rungs:
        for index, row in result.results.items():
            checked += 1
            identical += bool(np.array_equal(row, direct.predict_proba(samples[picks[index]][None])[0]))
    results = [result for result, _ in rungs]
    tails = {rate: _tail_ms(result) for rate, result in zip(spec.LADDER, results)}
    shares = {
        rate: result.share_within(spec.LATENCY_LIMIT_MS / 1e3) for rate, result in zip(spec.LADDER, results)
    }
    passing = -1
    for rate, result in zip(spec.LADDER, results):
        if result.failed or result.shed or shares[rate] < spec.PASS_SHARE:
            break
        passing += 1
    max_rate = float(spec.LADDER[passing]) if passing >= 0 else 0.0
    knee_rate = _knee_rate(passing, shares)
    band = [result for rate, result in zip(spec.LADDER, results) if rate in spec.LATENCY_RATES]
    latency, latency_report = _request_latency(np.concatenate([result.latencies_s() for result in band]))
    reference = results[spec.LADDER.index(spec.REFERENCE_RATE)]
    answered = saturated.done[saturated.outcome == OK]
    throughput = answered.size / (answered.max() - saturated.start)
    workspace = after["workspace"]
    layer = {}
    if ctx.tracer is not None:
        batches = after.get("batches", 0) - before.get("batches", 0)
        batched = after.get("batched_samples", 0) - before.get("batched_samples", 0)
        waits = request_waits_ms(ctx.tracer.spans, results)
        lateness_ms = np.concatenate([result.lateness_s() for result in results]) * 1e3
        layer = {
            "inference.workspace_bytes": workspace["nbytes"],
            "inference.workspace_misses": workspace["misses"],
            "serving.mean_batch_size": batched / batches if batches else 0.0,
            "serving.deadline_flushes": after.get("deadline_flushes", 0) - before.get("deadline_flushes", 0),
            "serving.shed": after["shed_requests"] - before["shed_requests"],
            "serving.wait_ms": median(waits) if waits else 0.0,
            "loadgen.late_ms": tail_percentile(lateness_ms)[1],
            "trace.overhead_frac": median(reference.latencies_s()) / median(untraced.latencies_s()) - 1.0,
            **{f"serving.p99_ms.r{rate}": tails[rate] for rate in spec.LADDER},
        }
    return _finish(
        setup=setup,
        samples_per_s=throughput,
        latency=latency,
        report={
            "saturated_rps": (throughput, "req/s"),
            "max_rate_rps": (max_rate, "req/s"),
            "knee_rate_rps": (knee_rate, "req/s"),
            **latency_report,
            **{f"rung_{rate}_tail_ms": (tails[rate], "ms") for rate in spec.LADDER},
            **{f"rung_{rate}_within_limit": (shares[rate], "fraction") for rate in spec.LADDER},
            "rungs_stopped": (sum(result.stopped for result in results), "count"),
            "inference.workspace_bytes": (workspace["nbytes"], "bytes"),
        },
        checks={"served_rows_bit_identical": checked > 0 and identical == checked},
        attempted=sum(result.attempted for result in [*results, saturated]),
        failed=sum(result.failed + result.shed for result in [*results, saturated]),
        layer=layer,
        configs={
            "aimts": asdict(AimTSConfig()),
            "finetune_fixture": asdict(fixture_config),
            "server": server_config,
            "ladder": spec.LADDER,
            "rung_s": rung_s,
            "saturation_s": saturation_s,
            "max_outstanding": spec.MAX_OUTSTANDING,
        },
    )


WORKLOADS = {
    "pretrain": pretrain,
    "pretrain_pipelined": pretrain_pipelined,
    "finetune_predict": finetune_predict,
    "serve": serve,
}
