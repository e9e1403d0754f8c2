"""The layers the traced run wraps, and the per-layer metrics made from its spans.

Each entry point is wrapped where its caller looks it up: a function reached
as a module attribute (``F.conv1d``, ``NI.conv1d_forward``) is patched on
that module, and ``prototype_loss`` / ``series_image_loss``, which the
pre-trainer imports by name, are patched inside ``repro.core.pretrainer``.
Work done in producer processes is invisible to these parent-side wrappers;
``pretrain_pipelined`` reads ``Trainer.pipeline_summary()`` for it instead.
"""

from __future__ import annotations

import bisect
from collections import defaultdict

import numpy as np

from perfbench import spec
from perfbench.loadgen import OK
from perfbench.trace import summarize


def _pair(value) -> tuple[int, int]:
    return (value, value) if isinstance(value, int) else tuple(value)


def conv1d_flops(x_shape, w_shape, *, stride=1, padding=0, dilation=1) -> int:
    """2·B·C_out·C_in·K·T_out: one multiply and one add per kernel tap and output."""
    batch, _, length = x_shape
    out_channels, in_channels, kernel = w_shape
    out_length = (length + 2 * padding - dilation * (kernel - 1) - 1) // stride + 1
    return 2 * batch * out_channels * in_channels * kernel * out_length


def conv2d_flops(x_shape, w_shape, *, stride=1, padding=0) -> int:
    """2·B·C_out·C_in·kh·kw·H_out·W_out."""
    batch, _, height, width = x_shape
    out_channels, in_channels, kh, kw = w_shape
    (sh, sw), (ph, pw) = _pair(stride), _pair(padding)
    out_h = (height + 2 * ph - kh) // sh + 1
    out_w = (width + 2 * pw - kw) // sw + 1
    return 2 * batch * out_channels * in_channels * kh * kw * out_h * out_w


def _conv1d_work(x, weight, bias=None, *, stride=1, padding=0, dilation=1, **_):
    return conv1d_flops(x.shape, weight.shape, stride=stride, padding=padding, dilation=dilation)


def _conv2d_work(x, weight, bias=None, *, stride=1, padding=0, **_):
    return conv2d_flops(x.shape, weight.shape, stride=stride, padding=padding)


def _rows(owner, x, *args, **kwargs):
    return len(x)


def entry_points() -> list[tuple]:
    """``(owner, attribute, span name, work)`` for every wrapped entry point."""
    import repro.api.registry as registry
    import repro.augmentations.bank as bank
    import repro.core.model as model
    import repro.core.pretrainer as pretrainer
    import repro.data.corpus as corpus
    import repro.data.corpus.reader as reader
    import repro.encoders.classifier as classifier
    import repro.encoders.image_encoder as image_encoder
    import repro.encoders.projection as projection
    import repro.encoders.ts_encoder as ts_encoder
    import repro.engine.trainer as trainer
    import repro.imaging.cache as cache
    import repro.imaging.line_chart as line_chart
    import repro.nn.functional as functional
    import repro.nn.inference as inference
    import repro.nn.optim as optim
    import repro.nn.tensor as tensor
    import repro.serving.server as server

    return [
        (corpus, "build_synthetic_corpus", "corpus.build", None),
        (reader.ShardedCorpus, "gather", "corpus.gather", None),
        (bank.AugmentationBank, "two_views", "augment", None),
        (line_chart.LineChartRenderer, "render_batch", "imaging.render", _rows),
        (cache.RenderCache, "get_batch", "imaging.cache_get", None),
        (ts_encoder.TSEncoder, "__call__", "encoder.ts", None),
        (image_encoder.ImageEncoder, "__call__", "encoder.image", None),
        (projection.ProjectionHead, "__call__", "encoder.projection", None),
        (classifier.ClassifierHead, "__call__", "encoder.classifier", None),
        (functional, "conv1d", "nn.conv1d", _conv1d_work),
        (functional, "conv2d", "nn.conv2d", _conv2d_work),
        (tensor.Tensor, "backward", "nn.backward", None),
        (optim.Adam, "step", "optim.step", None),
        (pretrainer, "prototype_loss", "loss.prototype", None),
        (pretrainer, "series_image_loss", "loss.series_image", None),
        (trainer.Trainer, "fit", "engine.fit", None),
        (ts_encoder.TSEncoder, "infer", "inference.ts", _rows),
        (classifier.ClassifierHead, "infer", "inference.classifier", None),
        (inference, "conv1d_forward", "inference.conv1d", _conv1d_work),
        (registry, "load_estimator", "bundle.load", None),
        (server.ModelServer, "submit", "serving.submit", None),
        # the replicas' predict_proba: one call per fused batch
        (model.AimTS, "predict_proba", "serving.compute", _rows),
    ]


def per_layer_metrics(spans, counters: dict) -> dict[str, float]:
    """Every ``spec.PER_LAYER`` metric, from the spans plus ``counters`` the
    workload read from the program's own stats; 0 for a layer it did not run."""
    table = summarize(spans)

    def get(name: str, key: str) -> float:
        return table[name][key] if name in table else 0.0

    def gflops(name: str) -> float:
        seconds = get(name, "total_s")
        return get(name, "work") / seconds / 1e9 if seconds else 0.0

    inference_calls = get("inference.ts", "calls")
    compute_calls = get("serving.compute", "calls")
    values = {
        "corpus.build_s": get("corpus.build", "self_s"),
        "corpus.gather_calls": get("corpus.gather", "calls"),
        "corpus.gather_s": get("corpus.gather", "self_s"),
        "augment.calls": get("augment", "calls"),
        "augment.s": get("augment", "self_s"),
        "imaging.render_samples": get("imaging.render", "work"),
        "imaging.render_s": get("imaging.render", "self_s"),
        "imaging.cache_get_s": get("imaging.cache_get", "self_s"),
        "encoder.ts_fwd_s": get("encoder.ts", "self_s"),
        "encoder.image_fwd_s": get("encoder.image", "self_s"),
        "encoder.head_fwd_s": get("encoder.projection", "self_s") + get("encoder.classifier", "self_s"),
        "nn.conv1d_calls": get("nn.conv1d", "calls"),
        "nn.conv1d_s": get("nn.conv1d", "self_s"),
        "nn.conv1d_gflops": gflops("nn.conv1d"),
        "nn.conv2d_calls": get("nn.conv2d", "calls"),
        "nn.conv2d_s": get("nn.conv2d", "self_s"),
        "nn.conv2d_gflops": gflops("nn.conv2d"),
        "nn.backward_s": get("nn.backward", "self_s"),
        "optim.step_s": get("optim.step", "self_s"),
        "loss.prototype_s": get("loss.prototype", "self_s"),
        "loss.series_image_s": get("loss.series_image", "self_s"),
        "engine.fit_s": get("engine.fit", "total_s"),
        "engine.self_s": get("engine.fit", "self_s"),
        "inference.calls": inference_calls,
        "inference.rows_mean": get("inference.ts", "work") / inference_calls if inference_calls else 0.0,
        "inference.s": get("inference.ts", "total_s") + get("inference.classifier", "total_s"),
        "inference.conv1d_s": get("inference.conv1d", "self_s"),
        "inference.conv1d_gflops": gflops("inference.conv1d"),
        "bundle.load_s": get("bundle.load", "self_s"),
        "serving.submit_s": get("serving.submit", "self_s"),
        "serving.compute_ms": get("serving.compute", "total_s") / compute_calls * 1e3 if compute_calls else 0.0,
    }
    values.update(counters)
    return {name: float(values.get(name, 0.0)) for name, _, _ in spec.PER_LAYER}


def request_waits_ms(spans, rungs) -> list[float]:
    """Each answered request's latency minus the compute of the batch that answered it.

    A worker resolves a batch's futures right after its ``predict_proba``
    returns, on its own thread, so a request's batch is the last
    ``serving.compute`` span that ended on the thread that settled it.
    """
    by_thread = defaultdict(list)
    for span in spans:
        if span.name == "serving.compute":
            by_thread[span.thread].append((span.end, span.end - span.start))
    ends, durations = {}, {}
    for thread, items in by_thread.items():
        items.sort()
        ends[thread] = [end for end, _ in items]
        durations[thread] = [duration for _, duration in items]
    waits = []
    for rung in rungs:
        for index in np.flatnonzero(rung.outcome == OK):
            thread = int(rung.done_thread[index])
            position = bisect.bisect_right(ends.get(thread, ()), rung.done[index]) - 1
            if position >= 0:
                latency = rung.done[index] - rung.scheduled[index]
                waits.append(float(latency - durations[thread][position]) * 1e3)
    return waits
