"""Span tracing from the benchmark's own files.

The traced run wraps the public entry points of each layer (listed in
:mod:`perfbench.layers`) instead of adding tracing inside ``src/``.  Each
wrapped call records one :class:`Span` — name, start, end, parent span,
thread, request id and a work figure such as FLOPs.  Spans stay in memory
and are written out when the run ends.  A span's *self time* is its duration
minus the part of it that its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from collections import defaultdict
from typing import NamedTuple

import numpy as np


class Span(NamedTuple):
    sid: int
    #: id of the enclosing span on the same thread; 0 for a root span
    parent: int
    name: str
    start: float
    end: float
    thread: int
    request: object
    work: float


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    run_lo = run_hi = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if run_hi is None or start > run_hi:
            if run_hi is not None:
                total += run_hi - run_lo
            run_lo, run_hi = start, end
        else:
            run_hi = max(run_hi, end)
    if run_hi is not None:
        total += run_hi - run_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the part its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent:
            children[span.parent].append((span.start, span.end))
    return {
        span.sid: (span.end - span.start)
        - covered_length(children.get(span.sid, ()), span.start, span.end)
        for span in spans
    }


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, inclusive ``total_s``, ``self_s`` and summed ``work``."""
    own = self_times(spans)
    table: dict[str, dict[str, float]] = {}
    for span in spans:
        row = table.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0.0})
        row["calls"] += 1
        row["total_s"] += span.end - span.start
        row["self_s"] += own[span.sid]
        row["work"] += span.work
    return table


_MISSING = object()


class Tracer:
    """Records spans around registered entry points while :meth:`active`."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._entries: list[tuple] = []

    def add(self, owner, attribute: str, name: str, work=None) -> None:
        """Register ``owner.attribute`` (a module function or a class method) as span ``name``.

        ``work(*args, **kwargs)``, evaluated after the call with the call's
        arguments, gives the span's work figure (FLOPs, rows).
        """
        self._entries.append((owner, attribute, name, work))

    def set_request(self, request) -> None:
        """Tag the spans this thread opens from now on with ``request``."""
        self._local.request = request

    def wrap(self, name: str, fn, work=None):
        """``fn`` wrapped to record one span per call."""
        spans, ids, local, clock = self.spans, self._ids, self._local, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(
                    Span(
                        sid,
                        parent,
                        name,
                        start,
                        end,
                        threading.get_ident(),
                        getattr(local, "request", None),
                        float(work(*args, **kwargs)) if work is not None else 0.0,
                    )
                )

        return traced

    @contextlib.contextmanager
    def active(self):
        """Install the wrappers for the enclosed block; restore the originals after it."""
        installed = []
        try:
            for owner, attribute, name, work in self._entries:
                installed.append((owner, attribute, vars(owner).get(attribute, _MISSING)))
                setattr(owner, attribute, self.wrap(name, getattr(owner, attribute), work))
            yield self
        finally:
            for owner, attribute, original in reversed(installed):
                if original is _MISSING:
                    delattr(owner, attribute)
                else:
                    setattr(owner, attribute, original)

    def save(self, path) -> None:
        """Write the recorded spans to ``path`` as one ``.npz`` of columns."""
        names = sorted({span.name for span in self.spans})
        index = {name: position for position, name in enumerate(names)}
        columns = list(zip(*self.spans)) if self.spans else [()] * len(Span._fields)
        np.savez(
            path,
            names=np.array(names, dtype=str),
            sid=np.array(columns[0], dtype=np.int64),
            parent=np.array(columns[1], dtype=np.int64),
            name=np.array([index[name] for name in columns[2]], dtype=np.int32),
            start=np.array(columns[3], dtype=np.float64),
            end=np.array(columns[4], dtype=np.float64),
            thread=np.array(columns[5], dtype=np.uint64),
            request=np.array(["" if request is None else str(request) for request in columns[6]], dtype=str),
            work=np.array(columns[7], dtype=np.float64),
        )
