"""What the lifecycle benchmark runs and reports: every name, size and bound.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --write-spec``); the workloads, the traced run
and the tests read their names, sizes and bounds from here.
"""

from __future__ import annotations

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]

#: measured seconds per run (passed as ``--seconds``)
RUN_SECONDS = 20
#: set-up runs this many times per run; its median is reported
SETUP_REPEATS = 15
#: idle seconds before each set-up repetition.  A shared machine runs slow
#: for spells of a tenth of a second to a second (one process timed the
#: ``serve`` set-up at 6.5 ms, then at 9.8 ms for 17 repetitions in a row);
#: spread over seconds, the repetitions sample many spells, not one
SETUP_PAUSE_S = 0.2
#: BLAS threads of every process the benchmark runs (recorded in the stamp)
BLAS_THREADS = 1

# -- inputs; the program always runs at the default AimTSConfig / FineTuneConfig
#: pre-training corpus: the default ecg/motion/device trio, univariate
PRETRAIN_SAMPLES = 1024
SERIES_LENGTH = 96
#: labelled motion dataset for fine-tuning and serving
N_CLASSES = 8
N_VARIABLES = 3
#: small enough that a run holds about seven fit + predict repetitions: on a
#: shared machine one repetition's time varied by a fifth within a run, so
#: the run's figures are medians over many
FINETUNE_TRAIN = 96
FINETUNE_TEST = 1024
#: rows per ``predict_proba`` call over the held-out split
PREDICT_ROWS = 256
#: held-out accuracy under this fails the ``finetune_predict`` run
ACCURACY_FLOOR = 0.5
#: held-out samples the serving requests are drawn from
SERVE_POOL = 512

#: the training workloads' ``latency_tail_ms`` is this percentile of a fit's
#: step latencies (median over the run's fits)
TAIL_PERCENTILE = 90

# -- serving
#: offered rates (req/s) of the open-loop ladder, ascending, across the knee
LADDER = (250, 500, 1000, 1500, 1750, 2000, 2250, 2500, 2750, 3000)
#: the rungs well below the knee whose pooled requests give ``serve``'s
#: ``latency_ms`` (p50) and ``latency_tail_ms`` (``REQUEST_TAIL_PERCENTILE``).
#: The knee (``max_rate_rps``, reported) lay anywhere between 555 and 1,950
#: req/s from one run to the next on a shared machine; at 1,000 req/s a slow
#: run already queued
LATENCY_RATES = (250, 500)
#: over ten seeds the p90 of these requests spread by 0.23 of its median: a
#: slow spell of the machine delays a tenth of two seconds' requests at will
REQUEST_TAIL_PERCENTILE = 75
#: the rung the traced run repeats untraced to measure its own overhead
REFERENCE_RATE = 500
#: share of ``--seconds`` that ``serve`` spends in a closed loop after the
#: ladder: ``MAX_OUTSTANDING`` requests always in flight, answers per second
#: being ``serve``'s ``samples_per_s`` (the server's capacity, read without
#: locating the knee)
SATURATION_SHARE = 0.2
#: requests prepared per second of the closed loop, above any rate it reaches
SATURATION_MAX_RPS = 10000
#: a rung passes when this share of its scheduled requests is answered within
#: the limit (failed, shed and unsent ones miss).  p99 of a two-second rung
#: rests on a dozen requests, so one pause of the machine would decide it;
#: each rung's tail is still reported
PASS_SHARE = 0.9
LATENCY_LIMIT_MS = 20.0
#: sends wait while this many requests are unanswered: past the knee each new
#: micro-batch size adds fused-inference workspace for good, so an unbounded
#: backlog would measure the allocator and could exhaust memory
MAX_OUTSTANDING = 16
#: warm-up rung length, as a share of the timed rung length: every batch size
#: first met while timing adds workspace buffers and shows as a latency spike
WARMUP_SHARE = 0.5
#: served responses per rung compared bit for bit with a direct call
CHECKED_PER_RUNG = 8
#: sender threads of the load generator (one process)
LOADGEN_THREADS = 2

WORKLOADS = {
    "pretrain": (
        "Default-config pre-training from a sharded corpus: about 95% of a step is autograd conv "
        "forward/backward, so kernel, augmentation, render-cache and optimizer changes show here."
    ),
    "pretrain_pipelined": (
        "The same pre-training with one producer process and a two-slot ring: the only workload "
        "that runs repro.engine.parallel, where merging the trainer modes must be judged."
    ),
    "serve": (
        "Single-sample predict_proba through ModelServer, open loop on a rate ladder across the knee, "
        "then closed loop at capacity: micro-batcher, slab transport, bundle load, small-batch inference."
    ),
}

#: Workloads ``run.py`` runs that ``BENCHMARK.json`` leaves out.
#: ``finetune_predict`` is dropped as unsteady: its 8-sample fine-tuning
#: steps took about 8 or about 12.5 ms in spells set by the shared machine,
#: and over ten seeds the quartile spread of its training rate and mean step
#: latency was 0.22 of the median, against a bound of 0.25, where pre-training
#: read 0.09 and serving 0.07.  Every layer it runs is also measured on
#: another workload; it stays runnable by name for the figures it reports.
EXTRA_WORKLOADS = {
    "finetune_predict": (
        "Fine-tune a loaded default bundle on 3-variable motion data, then predict_proba 1,024 rows "
        "in 256-row calls: channel-independent conv shapes and full-batch fused inference."
    ),
}

#: (name, unit, better, bound): every workload reports every one of these.
#: The bounds are wide because the 2-core container the benchmark was sized
#: on is shared and its speed drifts over minutes: over ten seeds,
#: default-config pre-training ran anywhere between 144 and 183 samples/s
#: (quartile spread 0.13 of the median)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("samples_per_s", "samples/s", "higher", 0.25),
    ("latency_ms", "ms", "lower", 0.25),
    ("latency_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
)

#: (name, unit, better): reported by the traced run, 0 where a layer does not run
PER_LAYER = (
    ("corpus.build_s", "s", "lower"),
    ("corpus.gather_calls", "count", "lower"),
    ("corpus.gather_s", "s", "lower"),
    ("augment.calls", "count", "lower"),
    ("augment.s", "s", "lower"),
    ("imaging.render_samples", "count", "lower"),
    ("imaging.render_s", "s", "lower"),
    ("imaging.cache_get_s", "s", "lower"),
    ("imaging.cache_hit_rate", "fraction", "higher"),
    ("encoder.ts_fwd_s", "s", "lower"),
    ("encoder.image_fwd_s", "s", "lower"),
    ("encoder.head_fwd_s", "s", "lower"),
    ("nn.conv1d_calls", "count", "lower"),
    ("nn.conv1d_s", "s", "lower"),
    ("nn.conv1d_gflops", "GFLOP/s", "higher"),
    ("nn.conv2d_calls", "count", "lower"),
    ("nn.conv2d_s", "s", "lower"),
    ("nn.conv2d_gflops", "GFLOP/s", "higher"),
    ("nn.backward_s", "s", "lower"),
    ("nn.matmul_roofline_gflops", "GFLOP/s", "higher"),
    ("optim.step_s", "s", "lower"),
    ("loss.prototype_s", "s", "lower"),
    ("loss.series_image_s", "s", "lower"),
    ("engine.fit_s", "s", "lower"),
    ("engine.self_s", "s", "lower"),
    ("engine.steps", "count", "higher"),
    ("engine.arena_misses", "count", "lower"),
    ("engine.arena_peak_bytes", "bytes", "lower"),
    ("engine.consumer_stall_s", "s", "lower"),
    ("engine.producer_occupancy", "fraction", "higher"),
    ("engine.produce_s", "s", "lower"),
    ("engine.restarts", "count", "lower"),
    ("inference.calls", "count", "lower"),
    ("inference.rows_mean", "rows", "higher"),
    ("inference.s", "s", "lower"),
    ("inference.conv1d_s", "s", "lower"),
    ("inference.conv1d_gflops", "GFLOP/s", "higher"),
    ("inference.workspace_bytes", "bytes", "lower"),
    ("inference.workspace_misses", "count", "lower"),
    ("bundle.load_s", "s", "lower"),
    ("serving.submit_s", "s", "lower"),
    ("serving.compute_ms", "ms", "lower"),
    ("serving.wait_ms", "ms", "lower"),
    ("serving.mean_batch_size", "rows", "higher"),
    ("serving.deadline_flushes", "count", "lower"),
    ("serving.shed", "count", "lower"),
    *((f"serving.p99_ms.r{rate}", "ms", "lower") for rate in LADDER),
    ("loadgen.late_ms", "ms", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
)


def benchmark_json() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [{"name": name, "unit": unit, "better": better} for name, unit, better in PER_LAYER],
    }
