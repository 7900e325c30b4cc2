"""JSONL export round-trip: metrics and spans survive the file layer."""

import json

from repro.obs import (
    MetricsRegistry,
    Tracer,
    export_jsonl,
    read_jsonl,
    spans_from_records,
)
from repro.sim.clock import Clock


def populated():
    clock = Clock()
    registry = MetricsRegistry()
    registry.counter("rpc.attempts").inc(7)
    registry.gauge("kernel.queue_depth").set(3)
    hist = registry.histogram("rpc.attempt_latency", bounds=(0.1, 1.0))
    for v in (0.05, 0.5, 2.0):
        hist.observe(v)
    tracer = Tracer(clock)
    outer = tracer.start("drain", impl="DynamicSet")
    clock.advance_to(0.25)
    inner = tracer.start("rpc.attempt", dst="s1")
    clock.advance_to(0.75)
    tracer.finish(inner, outcome="ok")
    clock.advance_to(1.5)
    tracer.finish(outer, outcome="Returned")
    return registry, tracer


def test_export_writes_meta_header_first(tmp_path):
    registry, tracer = populated()
    path = tmp_path / "trace.jsonl"
    n = export_jsonl(path, metrics=registry, tracer=tracer,
                     meta={"seed": 42})
    records = read_jsonl(path)
    assert len(records) == n == 1 + 3 + 2       # meta + metrics + spans
    assert records[0]["type"] == "meta"
    assert records[0]["schema"] == "repro.obs/1"
    assert records[0]["seed"] == 42
    # every line is standalone JSON (the greppable-artifact property)
    for line in path.read_text().splitlines():
        json.loads(line)


def test_metrics_round_trip(tmp_path):
    registry, tracer = populated()
    path = tmp_path / "trace.jsonl"
    export_jsonl(path, metrics=registry)
    rows = {record["name"]: record for record in read_jsonl(path)
            if record.pop("type") == "metric"}
    assert rows["rpc.attempts"]["value"] == 7
    assert rows["kernel.queue_depth"]["value"] == 3
    hist = rows["rpc.attempt_latency"]
    assert hist["counts"] == [1, 1, 1] and hist["count"] == 3
    assert (hist["min"], hist["max"]) == (0.05, 2.0)
    # each metric line is the registry's snapshot row, as JSON reads it
    assert rows == json.loads(json.dumps(registry.snapshot()))


def test_spans_round_trip(tmp_path):
    registry, tracer = populated()
    path = tmp_path / "trace.jsonl"
    export_jsonl(path, tracer=tracer)
    spans = spans_from_records(read_jsonl(path))
    assert [s.name for s in spans] == ["drain", "rpc.attempt"]
    drain, attempt = spans
    assert attempt.parent_id == drain.span_id   # nesting survives
    assert (drain.start, drain.end) == (0.0, 1.5)
    assert (attempt.start, attempt.end) == (0.25, 0.75)
    assert attempt.attrs == {"dst": "s1", "outcome": "ok"}
    assert drain.attrs["impl"] == "DynamicSet"


def test_unfinished_spans_export_with_null_end(tmp_path):
    clock = Clock()
    tracer = Tracer(clock)
    tracer.start("open.work")
    path = tmp_path / "trace.jsonl"
    export_jsonl(path, tracer=tracer)
    (span,) = spans_from_records(read_jsonl(path))
    assert span.end is None and not span.finished


def test_dropped_spans_are_reported_in_meta(tmp_path):
    clock = Clock()
    tracer = Tracer(clock, max_spans=1)
    tracer.start("kept")
    tracer.start("dropped")
    path = tmp_path / "trace.jsonl"
    export_jsonl(path, tracer=tracer)
    records = read_jsonl(path)
    assert records[0]["spans_dropped"] == 1
    assert len(spans_from_records(records)) == 1


def test_reader_skips_blank_lines(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text('{"type": "meta", "schema": "repro.obs/1"}\n\n'
                    '{"type": "metric", "kind": "counter", "name": "c", "value": 1}\n')
    records = read_jsonl(path)
    assert len(records) == 2
    assert records[1]["value"] == 1


def test_export_creates_parent_directories(tmp_path):
    registry, tracer = populated()
    path = tmp_path / "deep" / "nested" / "trace.jsonl"
    export_jsonl(path, metrics=registry)
    assert path.exists()
