"""Tests for topology construction, routing, and latency models."""

import pytest

from repro.errors import SimulationError
from repro.net import (
    FixedLatency,
    ParetoLatency,
    Topology,
    UniformLatency,
    full_mesh,
    line,
    wan_clusters,
)
from repro.sim.rng import RandomRouter


def route_latency(t, src, dst):
    """Summed expected link latency along ``t.route`` (None if cut)."""
    path = t.route(src, dst)
    return None if path is None else sum(lk.latency.expected() for lk in path)


def test_add_node_and_link():
    t = Topology()
    t.add_node("a")
    t.add_node("b")
    link = t.add_link("a", "b", FixedLatency(0.05))
    assert t.link_between("a", "b") is link
    assert t.link_between("b", "a") is link
    assert t.neighbors("a") == {"b"}


def test_duplicate_node_rejected():
    t = Topology()
    t.add_node("a")
    with pytest.raises(SimulationError):
        t.add_node("a")


def test_self_link_rejected():
    t = Topology()
    t.add_node("a")
    with pytest.raises(SimulationError):
        t.add_link("a", "a")


def test_duplicate_link_rejected_both_directions():
    t = Topology()
    t.add_node("a")
    t.add_node("b")
    t.add_link("a", "b")
    with pytest.raises(SimulationError):
        t.add_link("b", "a")


def test_route_direct_and_multihop():
    t = line(["a", "b", "c"], FixedLatency(0.01))
    assert len(t.route("a", "b")) == 1
    assert len(t.route("a", "c")) == 2
    assert route_latency(t, "a", "c") == pytest.approx(0.02)


def test_route_to_self_is_empty():
    t = line(["a", "b"])
    assert t.route("a", "a") == []
    assert route_latency(t, "a", "a") == 0.0


def test_route_prefers_lower_latency_path():
    t = Topology()
    for n in ["a", "b", "c"]:
        t.add_node(n)
    t.add_link("a", "c", FixedLatency(1.0))       # direct but slow
    t.add_link("a", "b", FixedLatency(0.1))
    t.add_link("b", "c", FixedLatency(0.1))       # two hops but fast
    path = t.route("a", "c")
    assert len(path) == 2
    assert route_latency(t, "a", "c") == pytest.approx(0.2)


def test_link_down_cuts_route():
    t = line(["a", "b", "c"])
    t.set_link_up("a", "b", False)
    assert t.route("a", "c") is None
    assert t.route("a", "c") is None
    t.set_link_up("a", "b", True)
    assert t.route("a", "c") is not None


def test_down_intermediate_node_cuts_route():
    t = line(["a", "b", "c"])
    t.set_node_up("b", False)
    assert t.route("a", "c") is None
    # a<->b link also unusable because b itself is down
    assert t.route("a", "b") is None


def test_route_cache_invalidated_on_change():
    t = line(["a", "b", "c"])
    assert t.route("a", "c") is not None
    t.set_link_up("b", "c", False)
    assert t.route("a", "c") is None


def test_full_mesh_builder():
    t = full_mesh(["a", "b", "c", "d"], FixedLatency(0.01))
    assert len(t.links()) == 6
    assert all(len(t.route(a, b)) == 1 for a in "abcd" for b in "abcd" if a != b)


def test_wan_clusters_builder():
    t = wan_clusters([3, 3], FixedLatency(0.001), FixedLatency(0.1))
    assert len(t.nodes()) == 6
    # intra-cluster is fast, inter-cluster is slow
    assert route_latency(t, "n0.1", "n0.2") == pytest.approx(0.001)
    assert route_latency(t, "n0.1", "n1.1") >= 0.1


def test_fixed_latency_model():
    m = FixedLatency(0.05)
    assert m.sample(None) == 0.05
    assert m.expected() == 0.05
    with pytest.raises(SimulationError):
        FixedLatency(-0.1)


def test_uniform_latency_model():
    s = RandomRouter(1).stream("lat")
    m = UniformLatency(0.01, 0.03)
    assert m.expected() == pytest.approx(0.02)
    for _ in range(50):
        assert 0.01 <= m.sample(s) <= 0.03
    with pytest.raises(SimulationError):
        UniformLatency(0.03, 0.01)


def test_pareto_latency_model():
    s = RandomRouter(2).stream("lat")
    m = ParetoLatency(0.05, alpha=2.5)
    assert m.expected() == pytest.approx(0.05 * 2.5 / 1.5)
    for _ in range(50):
        assert m.sample(s) >= 0.05
    with pytest.raises(SimulationError):
        ParetoLatency(0.05, alpha=1.0)


def test_unknown_endpoint_raises():
    t = line(["a", "b"])
    with pytest.raises(SimulationError):
        t.route("a", "zzz")


def test_ring_builder():
    from repro.net import ring
    t = ring(["a", "b", "c", "d"], FixedLatency(0.01))
    assert len(t.links()) == 4
    # one cut: still connected the long way
    t.set_link_up("a", "b", False)
    assert t.route("a", "b") is not None
    assert len(t.route("a", "b")) == 3
    # two cuts: partitioned
    t.set_link_up("c", "d", False)
    assert t.route("b", "d") is None or t.route("a", "c") is None


def test_ring_needs_three_nodes():
    from repro.net import ring
    with pytest.raises(SimulationError):
        ring(["a", "b"])
