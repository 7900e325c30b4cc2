"""Unified observability: metrics, spans, and JSONL export.

Every :class:`~repro.sim.kernel.Kernel` owns one
:class:`Observability` — a :class:`~repro.obs.metrics.MetricsRegistry`
plus a :class:`~repro.obs.spans.Tracer` sharing the kernel's virtual
clock.  All layers (transport, resilience, repository, weak-set
iterators) record into it, so any run can emit one machine-readable
artifact::

    kernel = Kernel(seed=42)
    ...                                     # build the world
    kernel.obs.tracer.record()              # keep spans (optional)
    ...                                     # run the simulation
    kernel.obs.export("run.jsonl", meta={"seed": 42})

A run with no recorder attached keeps no span: its tracer only times
the intervals the latency histograms observe.

Metric names and span conventions are catalogued in
``docs/observability.md``.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Hashable, Optional, Union

from .export import export_jsonl, read_jsonl, spans_from_records
from .metrics import (DEFAULT_LATENCY_BUCKETS, Counter, Gauge, Histogram,
                      MetricsRegistry)
from .spans import Span, SpanRecorder, Tracer

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.clock import Clock

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "Span",
    "SpanRecorder",
    "Tracer",
    "export_jsonl",
    "read_jsonl",
    "spans_from_records",
]


class Observability:
    """One kernel's metric registry + tracer, sharing its clock.  The
    tracer keeps spans only once ``tracer.record()`` has attached its
    recorder; ``export`` writes those it kept, and none without one."""

    __slots__ = ("metrics", "tracer")

    def __init__(self, clock: "Clock",
                 context_key: Optional[Callable[[], Hashable]] = None):
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(clock, context_key=context_key)

    def export(self, path: Union[str, Path],
               meta: Optional[dict[str, Any]] = None) -> int:
        """Write metrics + recorded spans as one JSONL artifact; returns
        the record count."""
        return export_jsonl(path, metrics=self.metrics,
                            spans=self.tracer.recorder, meta=meta)

    def __repr__(self) -> str:
        return f"Observability({len(self.metrics)} metrics, {self.tracer!r})"
