"""E17 — the observability layer measuring a faulty drain workload.

Every other experiment reports what its own harness chose to count.
E17 is the inverse: it runs a standard resilient-drain workload (the
E16 "full stack" client under crash faults) and reports **only what the
unified observability layer recorded** — kernel event counts, transport
message totals, RPC attempt/retry/hedge counters, fetch and drain
latency histograms, and span statistics including the nesting invariant
the recorder promises (every ``rpc.attempt`` inside a drain traces back
to its ``drain`` span).  It attaches a span recorder to each run; no
other experiment keeps spans.

All reported numbers come from virtual time and seeded RNG streams, so
the table is machine-independent — which is what lets CI ``diff`` it
against the committed ``ci/bench_baseline.json``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..obs import Histogram, MetricsRegistry, SpanRecorder
from ..wan.workload import build_scenario
from .exp_resilience import VARIANTS, crash_world, resilient_set
from .harness import drain
from .report import ExperimentResult

__all__ = ["run_obs"]

#: Counters reported in the table.
_COUNTERS = (
    "kernel.events", "kernel.sim_seconds",
    "net.messages_sent", "net.messages_delivered", "net.messages_dropped",
    "rpc.attempts", "rpc.retries", "rpc.hedges", "rpc.hedge_wins",
    "rpc.failovers", "rpc.breaker_trips", "rpc.breaker_fast_fails",
    "repo.membership_reads", "repo.cache_hits",
    "drain.completed", "drain.failed", "drain.yields",
    "sync.rounds", "sync.failures",
    "wal.intents", "recovery.replays", "repair.scrub_rounds",
)

#: Span names that root an RPC in a workload: a client-facing drain, or
#: one of the background protocols (anti-entropy, scrub, intent replay).
#: The nesting invariant says every ``rpc.attempt`` reaches one of them.
ROOT_SPANS = ("drain", "sync.round", "repair.scrub", "recovery.replay")

_HISTOGRAMS = (
    "net.delivery_delay", "rpc.attempt_latency",
    "repo.fetch_latency", "drain.latency",
)


def _one_run(seed: int, members: int,
             crash_rate: float) -> tuple[MetricsRegistry, SpanRecorder]:
    """One seeded drain of E16's full stack (``retry+hedge+breaker``) on
    E16's world, without the churn, with a span recorder attached;
    returns the kernel's registry and the spans it recorded."""
    scenario = build_scenario(crash_world(crash_rate, members), seed=seed)
    _, make_resilience, failover = VARIANTS[-1]
    ws = resilient_set(scenario, make_resilience, failover)
    obs = scenario.kernel.obs
    recorder = obs.tracer.record()
    drain(scenario, ws.elements())
    return obs.metrics, recorder


def _merge_histogram(merged: Optional[Histogram], part: Histogram) -> Histogram:
    if merged is None:
        merged = Histogram(part.name, bounds=part.bounds)
    assert merged.bounds == part.bounds
    for i, n in enumerate(part.counts):
        merged.counts[i] += n
    merged.total += part.total
    merged.count += part.count
    if part.vmin is not None:
        merged.vmin = part.vmin if merged.vmin is None else min(merged.vmin, part.vmin)
    if part.vmax is not None:
        merged.vmax = part.vmax if merged.vmax is None else max(merged.vmax, part.vmax)
    return merged


def _span_depth(recorder: SpanRecorder) -> int:
    return max((1 + sum(1 for _ in recorder.ancestors(s)) for s in recorder),
               default=0)


def run_obs(seeds: Sequence[int] = (0, 1, 2, 3), members: int = 10,
            crash_rate: float = 0.1) -> ExperimentResult:
    """E17: aggregate the obs layer's view of seeded resilient drains."""
    result = ExperimentResult(
        "E17", "Observability of resilient drains "
               f"(registry + spans over {len(seeds)} seeded runs, "
               f"crash rate {crash_rate})",
        columns=["metric", "kind", "value", "mean", "p95"],
        notes="every number is virtual-time/seeded (machine-independent); "
              "spans.nested_attempts counts rpc.attempt spans whose ancestry "
              "reaches a workload root span (drain, sync.round, repair.scrub "
              "or recovery.replay) — the tracer's nesting invariant",
    )
    counters: dict[str, float] = {name: 0 for name in _COUNTERS}
    histograms: dict[str, Optional[Histogram]] = {name: None for name in _HISTOGRAMS}
    spans_total = drain_spans = attempt_spans = nested_attempts = 0
    max_depth = 0
    for seed in seeds:
        registry, recorder = _one_run(seed, members, crash_rate)
        for name in _COUNTERS:
            counters[name] += registry.value(name)
        for name in _HISTOGRAMS:
            hist = registry.get(name)
            if isinstance(hist, Histogram):
                histograms[name] = _merge_histogram(histograms[name], hist)
        spans_total += len(recorder)
        drain_spans += len(recorder.spans("drain"))
        attempts = recorder.spans("rpc.attempt")
        attempt_spans += len(attempts)
        nested_attempts += sum(
            1 for a in attempts
            if any(s.name in ROOT_SPANS for s in recorder.ancestors(a)))
        max_depth = max(max_depth, _span_depth(recorder))
    for name in _COUNTERS:
        result.add(metric=name, kind="counter", value=counters[name],
                   mean=None, p95=None)
    for name, hist in histograms.items():
        if hist is None:
            continue
        result.add(metric=name, kind="histogram", value=hist.count,
                   mean=hist.mean, p95=hist.quantile(0.95))
    for name, value in (("total", spans_total), ("drain", drain_spans),
                        ("rpc_attempt", attempt_spans),
                        ("nested_attempts", nested_attempts),
                        ("max_depth", max_depth)):
        result.add(metric=f"spans.{name}", kind="spans", value=value,
                   mean=None, p95=None)
    return result
