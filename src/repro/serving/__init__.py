"""``repro.serving`` — async front door over the estimators' inference path.

A long-lived :class:`ModelServer` coalesces concurrent single-sample
``predict`` / ``predict_proba`` / ``encode`` requests into fused micro-batches
(size trigger ``max_batch`` or deadline trigger ``max_wait_ms``, whichever
fires first), runs them on worker threads with warm per-worker workspaces,
and scatters results back to per-request futures.  ``max_pending`` bounds
admission (:class:`ServerOverloadedError` fast-fail), per-request
``deadline_ms`` drops stale work before the fused call
(:class:`DeadlineExceededError`), and dead worker threads are replaced on
the submit path.  See the README "Serving" / "Reliability" sections and
``examples/serve.py``.

>>> from repro.serving import ModelServer
>>> with ModelServer.from_bundle("model.npz", max_wait_ms=2.0) as server:
...     label = server.submit(sample).result()
"""

from repro.serving.batcher import MicroBatch, MicroBatcher, Request
from repro.serving.errors import DeadlineExceededError, ServerOverloadedError
from repro.serving.loadgen import LoadReport, run_open_loop, serial_baseline
from repro.serving.server import DEFAULT_MAX_WAIT_MS, ModelServer
from repro.serving.stats import LatencySummary, ServerStats

__all__ = [
    "DEFAULT_MAX_WAIT_MS",
    "DeadlineExceededError",
    "LatencySummary",
    "LoadReport",
    "MicroBatch",
    "MicroBatcher",
    "ModelServer",
    "Request",
    "ServerOverloadedError",
    "ServerStats",
    "run_open_loop",
    "serial_baseline",
]
