"""Unified observability: metrics, spans, and JSONL export.

Every :class:`~repro.sim.kernel.Kernel` owns one
:class:`Observability` — a :class:`~repro.obs.metrics.MetricsRegistry`
plus a :class:`~repro.obs.spans.Tracer` sharing the kernel's virtual
clock.  All layers (transport, resilience, repository, weak-set
iterators) record into it, so any run can emit one machine-readable
artifact::

    kernel = Kernel(seed=42)
    ...                                     # run the simulation
    kernel.obs.export("run.jsonl", meta={"seed": 42})

Metric names and span conventions are catalogued in
``docs/observability.md``; the bench regression gate
(``python -m repro.bench compare``) consumes the same snapshots.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Hashable, Optional, Union

from .export import export_jsonl, read_jsonl, spans_from_records
from .metrics import (DEFAULT_LATENCY_BUCKETS, Counter, Gauge, Histogram,
                      MetricsRegistry)
from .spans import Span, Tracer

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
    "Tracer",
    "export_jsonl",
    "read_jsonl",
    "spans_from_records",
]


class Observability:
    """One kernel's metric registry + tracer, sharing its clock."""

    __slots__ = ("metrics", "tracer")

    def __init__(self, clock: "Clock",
                 context_key: Optional[Callable[[], Hashable]] = None):
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(clock, context_key=context_key)

    def export(self, path: Union[str, Path],
               meta: Optional[dict[str, Any]] = None) -> int:
        """Write metrics + spans as one JSONL artifact; returns record count."""
        return export_jsonl(path, metrics=self.metrics, tracer=self.tracer,
                            meta=meta)

    def __repr__(self) -> str:
        return (f"Observability({len(self.metrics)} metrics, "
                f"{len(self.tracer)} spans)")
