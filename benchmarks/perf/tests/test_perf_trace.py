"""Span nesting and self-time arithmetic."""

import json

import pytest

from perf.trace import Span, Tracer, self_times


class Ticker:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_nested_spans_record_parent_and_op_id():
    tracer = Tracer(clock=Ticker())
    with tracer.span("outer", op_id=7) as outer:
        with tracer.span("inner", op_id=7):
            pass
        tracer.add("kernel", 10.0, 11.0, op_id=7)
    names = [(s.name, s.parent, s.op_id) for s in tracer.spans]
    assert names == [("outer", -1, 7), ("inner", outer, 7), ("kernel", outer, 7)]
    assert tracer.durations("outer") == [3.0]   # ticks 1..4
    assert tracer.durations("inner") == [1.0]


def test_self_time_is_duration_minus_children_cover():
    spans = [
        Span("parent", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 3.0, 0, 0),
        Span("b", 2.0, 5.0, 0, 0),      # overlaps a: union is [1, 5]
        Span("c", 8.0, 12.0, 0, 0),     # clipped to the parent: [8, 10]
        Span("leaf", 1.5, 2.5, 1, 0),   # grandchild: only a's business
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert own[1] == pytest.approx(2.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)


def test_write_emits_one_json_object_per_span(tmp_path):
    tracer = Tracer(clock=Ticker())
    with tracer.span("outer", op_id=1):
        with tracer.span("inner", op_id=1):
            pass
    path = tmp_path / "out" / "x.spans.jsonl"
    tracer.write(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["name"] for r in rows] == ["outer", "inner"]
    assert rows[0]["self"] == pytest.approx(2.0) and rows[1]["parent"] == 0
