"""JSONL export/import for metrics and spans.

One line per record, so artifacts stream, diff, and grep well:

* ``{"type": "meta", ...}`` — run metadata (first line by convention);
* ``{"type": "metric", "kind": "counter" | "gauge" | "histogram", ...}``;
* ``{"type": "span", "span_id": ..., "parent_id": ..., ...}``.

``export_jsonl`` / ``read_jsonl`` are the file layer;
``spans_from_records`` rebuilds live spans, so a trace round-trips:
export a run, re-import it, and query its spans offline exactly as the
run saw them (metric records are the registry's snapshot rows, read as
they are).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Optional, Union

from .metrics import MetricsRegistry
from .spans import Span, Tracer

__all__ = ["export_jsonl", "read_jsonl", "spans_from_records"]


def _metric_records(registry: MetricsRegistry) -> Iterable[dict]:
    for record in registry.snapshot().values():
        yield {"type": "metric", **record}


def _span_records(tracer: Tracer) -> Iterable[dict]:
    for span in tracer.spans():
        yield {"type": "span", **span.to_dict()}


def export_jsonl(path: Union[str, Path], *,
                 metrics: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None,
                 meta: Optional[dict[str, Any]] = None) -> int:
    """Write one JSONL artifact; returns the number of records written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    records = 0
    with path.open("w", encoding="utf-8") as fh:
        header = {"type": "meta", "schema": "repro.obs/1"}
        if meta:
            header.update(meta)
        if tracer is not None and tracer.dropped:
            header["spans_dropped"] = tracer.dropped
        fh.write(json.dumps(header, default=str) + "\n")
        records += 1
        if metrics is not None:
            for record in _metric_records(metrics):
                fh.write(json.dumps(record, default=str) + "\n")
                records += 1
        if tracer is not None:
            for record in _span_records(tracer):
                fh.write(json.dumps(record, default=str) + "\n")
                records += 1
    return records


def read_jsonl(path: Union[str, Path]) -> list[dict]:
    """All records of a JSONL artifact (blank lines skipped)."""
    out = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out


def spans_from_records(records: Iterable[dict]) -> list[Span]:
    """Rebuild spans (id, parent, timing, attrs) from exported records."""
    spans = []
    for record in records:
        if record.get("type") != "span":
            continue
        span = Span(record["span_id"], record["name"], record["start"],
                    parent_id=record.get("parent_id"),
                    attrs=dict(record.get("attrs", {})))
        span.end = record.get("end")
        spans.append(span)
    return spans
