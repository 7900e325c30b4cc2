"""The obs layer wired through the stack: registry agreement and nesting."""

from repro.net import BreakerPolicy, ResilientClient, RetryPolicy
from repro.net.stats import NetworkStats
from repro.obs import export_jsonl, read_jsonl, spans_from_records
from repro.spec import Returned

from helpers import CLIENT, drain_all, standard_world


def resilient_drain(crash=None, members=6, give_up_after=3.0):
    kernel, net, world, elements = standard_world(
        n_servers=3, members=members, replicas=1)
    resilience = ResilientClient(
        net,
        policy=RetryPolicy(max_attempts=4, base_delay=0.05, multiplier=2.0,
                           max_delay=0.5, jitter=0.5),
        breaker=BreakerPolicy(failure_threshold=3, cooldown=1.0))
    from repro.weaksets import DynamicSet
    ws = DynamicSet(world, CLIENT, "coll", resilience=resilience,
                    rpc_timeout=0.5, retry_interval=0.25,
                    give_up_after=give_up_after, failover=True)
    if crash:
        net.crash(crash)
    result = drain_all(kernel, ws)
    return kernel, net, result


# ---------------------------------------------------------------------------
# one surface: NetworkStats attributes *are* the registry's counters
# ---------------------------------------------------------------------------

#: attribute -> registry name (the names docs/observability.md documents
#: and perf/workloads.py reads)
STATS_METRICS = {
    "total_sent": "net.messages_sent",
    "total_delivered": "net.messages_delivered",
    "total_dropped": "net.messages_dropped",
    "retries": "rpc.retries",
    "hedges": "rpc.hedges",
    "hedge_wins": "rpc.hedge_wins",
    "breaker_trips": "rpc.breaker_trips",
    "breaker_fast_fails": "rpc.breaker_fast_fails",
    "failovers": "rpc.failovers",
    "retry_budget_exhausted": "overload.retry_budget_exhausted",
    "bytes_sent": "net.bytes_sent",
    "bytes_received": "net.bytes_received",
}


def test_network_stats_facade_reads_registry_counters():
    kernel, net, result = resilient_drain()
    registry = kernel.obs.metrics
    stats = net.transport.stats
    assert isinstance(stats, NetworkStats)
    for attr, metric in STATS_METRICS.items():
        assert getattr(stats, attr) is registry.counter(metric), (attr, metric)
    assert stats.total_sent.value > 0
    assert isinstance(result.outcome, Returned)


def test_facade_agreement_survives_faults_and_retries():
    kernel, net, result = resilient_drain(crash="s2")
    registry = kernel.obs.metrics
    stats = net.transport.stats
    # the crash engaged the retry machinery; both views saw it
    assert stats.retries.value > 0
    assert stats.retries.value == registry.value("rpc.retries")
    assert stats.total_dropped.value == registry.value("net.messages_dropped")
    for attr, metric in STATS_METRICS.items():
        assert getattr(stats, attr).value == registry.value(metric), (attr, metric)


def test_facade_writes_reach_the_registry():
    kernel, net, _ = resilient_drain()
    registry = kernel.obs.metrics
    before = registry.value("rpc.retries")
    net.transport.stats.retries.value += 3
    assert registry.value("rpc.retries") == before + 3


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
    tracer = kernel.obs.tracer
    drains = tracer.spans("drain")
    attempts = tracer.spans("rpc.attempt")
    assert len(drains) == 1 and attempts
    (drain,) = drains
    for attempt in attempts:
        ancestors = list(tracer.ancestors(attempt))
        assert any(s is drain for s in ancestors), attempt
        assert any(s.name == "rpc.call" for s in ancestors), attempt
        # containment in virtual time, not just by link
        assert drain.start <= attempt.start
        assert attempt.end is not None and attempt.end <= drain.end
    assert drain.attrs["outcome"] == "Returned"


def test_trace_exports_and_reimports_with_nesting_intact(tmp_path):
    kernel, net, result = resilient_drain(crash="s2")
    path = tmp_path / "trace.jsonl"
    export_jsonl(path, metrics=kernel.obs.metrics, tracer=kernel.obs.tracer,
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
    spans1 = [s.to_dict() for s in kernel1.obs.tracer]
    spans2 = [s.to_dict() for s in kernel2.obs.tracer]
    assert spans1 == spans2
