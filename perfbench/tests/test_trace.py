"""Span bookkeeping of the traced run: self-time arithmetic and wrapping."""

import itertools

from perfbench.trace import Span, Tracer, covered_length, self_times, summarize


def _span(sid, parent, name, start, end):
    return Span(sid, parent, name, start, end, 0, None, 0.0)


def test_self_time_subtracts_nested_children():
    spans = [
        _span(1, 0, "fit", 0.0, 10.0),
        _span(2, 1, "conv", 1.0, 3.0),
        _span(3, 1, "conv", 4.0, 5.0),
        _span(4, 2, "im2col", 1.5, 2.0),
    ]
    assert self_times(spans) == {1: 7.0, 2: 1.5, 3: 1.0, 4: 0.5}
    conv = summarize(spans)["conv"]
    assert (conv["calls"], conv["total_s"], conv["self_s"]) == (2, 3.0, 2.5)


def test_overlapping_children_count_once():
    # children on other threads may overlap each other in time
    spans = [_span(1, 0, "compute", 0.0, 10.0), _span(2, 1, "a", 2.0, 6.0), _span(3, 1, "b", 4.0, 8.0)]
    assert self_times(spans)[1] == 4.0


def test_children_are_clipped_to_their_parent():
    assert covered_length([(3.0, 9.0), (-2.0, 1.0)], 0.0, 5.0) == 3.0
    spans = [_span(1, 0, "parent", 0.0, 5.0), _span(2, 1, "child", 3.0, 9.0)]
    assert self_times(spans)[1] == 3.0


class _Base:
    def __call__(self, x):
        return x


class _Model(_Base):
    def outer(self, x):
        return self.inner(x) + self(x)

    def inner(self, x):
        return 2 * x


def test_tracer_records_parents_and_restores_attributes():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.add(_Model, "outer", "outer")
    tracer.add(_Model, "inner", "inner", work=lambda self, x: x)
    tracer.add(_Model, "__call__", "call")  # inherited: patched on _Model, then removed again
    original = _Model.outer
    with tracer.active():
        tracer.set_request("req-1")
        assert _Model().outer(3) == 9
    assert _Model.outer is original
    assert "__call__" not in vars(_Model)
    spans = {span.name: span for span in tracer.spans}
    assert spans["inner"].parent == spans["outer"].sid
    assert spans["call"].parent == spans["outer"].sid
    assert spans["inner"].work == 3.0
    assert spans["outer"].request == "req-1"
    # outer runs over ticks 0..5, its children over 1..2 and 3..4
    assert summarize(tracer.spans)["outer"]["self_s"] == 3.0
