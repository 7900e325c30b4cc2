"""The obs layer wired through the stack: registry agreement and nesting."""

from repro.net import BreakerPolicy, ResilientClient, RetryPolicy
from repro.obs import export_jsonl, read_jsonl, spans_from_records
from repro.spec import Returned
from repro.weaksets import DynamicSet

from helpers import CLIENT, drain_all, standard_world


def resilient_stack(crash=None, members=6, give_up_after=3.0):
    """A replicated world and a fig6 set behind a retrying, breaker-gated
    client; returns (kernel, net, world, resilience, ws), not yet run."""
    kernel, net, world, elements = standard_world(
        n_servers=3, members=members, replicas=1)
    resilience = ResilientClient(
        net,
        policy=RetryPolicy(max_attempts=4, base_delay=0.05, max_delay=0.5),
        breaker=BreakerPolicy(failure_threshold=3, cooldown=1.0))
    ws = DynamicSet(world, CLIENT, "coll", resilience=resilience,
                    rpc_timeout=0.5, retry_interval=0.25,
                    give_up_after=give_up_after, failover=True)
    if crash:
        net.crash(crash)
    return kernel, net, world, resilience, ws


def resilient_drain(crash=None, members=6, give_up_after=3.0):
    """The stack's drain with a span recorder attached; returns
    (kernel, net, result)."""
    kernel, net, _, _, ws = resilient_stack(crash, members, give_up_after)
    kernel.obs.tracer.record()
    return kernel, net, drain_all(kernel, ws)


# ---------------------------------------------------------------------------
# one ledger: each count is the registry counter its one owner bumps
# ---------------------------------------------------------------------------

def owned_counters(net, world, resilience) -> dict:
    """Registry name -> the instrument its owning layer holds (the names
    docs/observability.md documents and perf/workloads.py reads)."""
    transport = net.transport
    return {
        "net.messages_sent": transport._m_sent,
        "net.messages_delivered": transport._m_delivered,
        "net.messages_dropped": transport._m_dropped,
        "net.bytes_sent": transport._m_bytes_sent,
        "net.bytes_received": transport._m_bytes_received,
        "rpc.retries": resilience._m_retries,
        "rpc.hedges": resilience._m_hedges,
        "rpc.hedge_wins": resilience._m_hedge_wins,
        "rpc.breaker_trips": resilience._m_breaker_trips,
        "rpc.breaker_fast_fails": resilience._m_breaker_fast_fails,
        "overload.retry_budget_exhausted": resilience._m_budget_exhausted,
        "rpc.failovers": world.repository_instruments.failovers,
    }


def test_network_stats_facade_reads_registry_counters():
    kernel, net, world, resilience, ws = resilient_stack()
    result = drain_all(kernel, ws)
    registry = kernel.obs.metrics
    owned = owned_counters(net, world, resilience)
    assert len(owned) == 12
    for name, instrument in owned.items():
        assert instrument is registry.counter(name), name
    assert registry.value("net.messages_sent") > 0
    assert isinstance(result.outcome, Returned)


def test_facade_agreement_survives_faults_and_retries():
    kernel, net, world, resilience, ws = resilient_stack(crash="s2")
    drain_all(kernel, ws)
    registry = kernel.obs.metrics
    snapshot = registry.snapshot()
    # the crash engaged the retry machinery, and the snapshot (what the
    # JSONL export writes) reports every owner's count
    assert registry.value("rpc.retries") > 0
    for name, instrument in owned_counters(net, world, resilience).items():
        assert instrument is registry.counter(name), name
        assert snapshot[name]["value"] == instrument.value, name


# ---------------------------------------------------------------------------
# metric coverage across layers
# ---------------------------------------------------------------------------

def test_every_layer_contributes_metrics():
    kernel, net, result = resilient_drain()
    registry = kernel.obs.metrics
    assert registry.value("kernel.events") > 0
    assert registry.value("net.messages_sent") > 0
    assert registry.value("rpc.attempts") > 0
    assert registry.value("repo.membership_reads") > 0
    assert registry.value("drain.completed") == 1
    assert registry.value("drain.yields") == len(result.elements)
    hist = registry.get("drain.latency")
    assert hist is not None and hist.count == 1
    assert registry.get("rpc.attempt_latency").count == registry.value("rpc.attempts")
    # drain latency in virtual seconds matches the kernel's accounting
    assert registry.value("kernel.sim_seconds") == kernel.now


# ---------------------------------------------------------------------------
# span nesting: rpc.attempt ⊂ rpc.call ⊂ drain
# ---------------------------------------------------------------------------

def test_rpc_attempts_nest_under_the_drain_span():
    kernel, net, result = resilient_drain()
    recorder = kernel.obs.tracer.recorder
    drains = recorder.spans("drain")
    attempts = recorder.spans("rpc.attempt")
    assert len(drains) == 1 and attempts
    (drain,) = drains
    for attempt in attempts:
        ancestors = list(recorder.ancestors(attempt))
        assert any(s is drain for s in ancestors), attempt
        assert any(s.name == "rpc.call" for s in ancestors), attempt
        # containment in virtual time, not just by link
        assert drain.start <= attempt.start
        assert attempt.end is not None and attempt.end <= drain.end
    assert drain.attrs["outcome"] == "Returned"


def test_trace_exports_and_reimports_with_nesting_intact(tmp_path):
    kernel, net, result = resilient_drain(crash="s2")
    path = tmp_path / "trace.jsonl"
    export_jsonl(path, metrics=kernel.obs.metrics,
                 spans=kernel.obs.tracer.recorder,
                 meta={"test": "integration"})
    records = read_jsonl(path)
    spans = spans_from_records(records)
    by_id = {s.span_id: s for s in spans}
    attempts = [s for s in spans if s.name == "rpc.attempt"]
    assert attempts

    # Every wire attempt traces back to a workload root: a client drain,
    # or one of the background protocols (anti-entropy, scrub, recovery).
    roots = {"drain", "sync.round", "repair.scrub", "recovery.replay"}

    def has_root_ancestor(span):
        while span.parent_id is not None:
            span = by_id[span.parent_id]
            if span.name in roots:
                return True
        return False

    assert all(has_root_ancestor(a) for a in attempts)
    # and the client-facing ones still nest under their drain
    drain_ids = {s.span_id for s in spans if s.name == "drain"}
    assert drain_ids and any(has_root_ancestor(a) for a in attempts)


def test_runs_are_deterministic_functions_of_the_seed():
    kernel1, _, _ = resilient_drain(crash="s2")
    kernel2, _, _ = resilient_drain(crash="s2")
    assert kernel1.obs.metrics.snapshot() == kernel2.obs.metrics.snapshot()
    spans1 = [s.to_dict() for s in kernel1.obs.tracer.recorder]
    spans2 = [s.to_dict() for s in kernel2.obs.tracer.recorder]
    assert spans1 == spans2
