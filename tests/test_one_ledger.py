"""Every count is a metrics-registry counter, bumped by the one layer
that owns it and read from the registry: there is no second ledger and
no facade in front of the first."""

import ast
from pathlib import Path

import repro
import repro.net
from repro.net import FixedLatency, Network, ResilientClient, Transport, full_mesh
from repro.sim import Kernel

#: the counters a ResilientClient owns (registered by the client itself)
RESILIENCE_COUNTERS = ("rpc.retries", "rpc.hedges", "rpc.hedge_wins",
                       "rpc.breaker_trips", "rpc.breaker_fast_fails",
                       "overload.retry_budget_exhausted")


def _names_transport_stats(tree: ast.AST) -> bool:
    return any(isinstance(node, ast.Attribute) and node.attr == "stats"
               and isinstance(node.value, ast.Attribute)
               and node.value.attr == "transport"
               for node in ast.walk(tree))


def test_no_stats_facade_is_exported_or_held():
    assert not {"NetworkStats", "NodeStats"} & set(repro.net.__all__)
    assert not hasattr(repro.net, "NetworkStats")
    assert not hasattr(repro.net, "NodeStats")
    net = Network(Kernel(), full_mesh(["a", "b"], FixedLatency(0.01)))
    assert not hasattr(Transport, "stats")
    assert not hasattr(net.transport, "stats")
    assert not hasattr(ResilientClient(net), "stats")


def test_no_module_reads_transport_stats():
    offenders = []
    for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if _names_transport_stats(tree):
            offenders.append(str(path))
    assert offenders == []


def test_resilience_counters_are_registered_by_their_client():
    kernel = Kernel()
    net = Network(kernel, full_mesh(["a", "b"], FixedLatency(0.01)))
    registry = kernel.obs.metrics
    assert not set(RESILIENCE_COUNTERS) & set(
        instrument.name for instrument in registry)
    assert [registry.value(name) for name in RESILIENCE_COUNTERS] == [0] * 6
    ResilientClient(net)
    assert set(RESILIENCE_COUNTERS) <= set(
        instrument.name for instrument in registry)
