"""Finite-bandwidth links: FIFO queuing, byte-capped batching, presets.

Satellites of E25: object transfers are charged by the wire model
(``Link.bandwidth``), byte counters and queue delay are first-class
metrics, and both pipelines respect ``max_batch_bytes``.
"""

from collections import deque

import pytest

from repro.net import BANDWIDTH_PRESETS, WireFormat
from repro.net.link import Link
from repro.store import Repository
from repro.store.writeplan import AddSpec, WritePlanner, _WriteOp
from repro.wan import ScenarioSpec, build_scenario
from repro.weaksets import DynamicSet

from helpers import CLIENT, PRIMARY, standard_world


# -- Link.transmit ----------------------------------------------------------

def test_transfer_time_is_size_over_bandwidth():
    link = Link("a", "b", bandwidth=1000.0)
    assert link.transmit("a", 500, now=0.0) == (0.0, 0.5)


def test_infinite_bandwidth_is_free():
    link = Link("a", "b")
    assert link.transmit("a", 10**9, now=0.0) == (0.0, 0.0)


def test_fifo_queuing_per_direction():
    link = Link("a", "b", bandwidth=1000.0)
    assert link.transmit("a", 1000, now=0.0) == (0.0, 1.0)
    # the second message queues behind the first's full transfer
    wait, transfer = link.transmit("a", 500, now=0.2)
    assert wait == pytest.approx(0.8) and transfer == pytest.approx(0.5)
    # the reverse direction is an independent FIFO (full duplex)
    assert link.transmit("b", 500, now=0.2) == (0.0, 0.5)


def test_fifo_drains_when_idle():
    link = Link("a", "b", bandwidth=1000.0)
    link.transmit("a", 1000, now=0.0)
    wait, _ = link.transmit("a", 100, now=5.0)     # long after drain
    assert wait == 0.0


def test_negative_bandwidth_rejected():
    from repro.errors import SimulationError
    with pytest.raises(SimulationError):
        Link("a", "b", bandwidth=-1.0)


def test_repr_includes_loss_and_bandwidth():
    shown = repr(Link("a", "b", loss_rate=0.001, bandwidth=1.25e6))
    assert "loss=0.001" in shown and "bw=1.25e+06B/s" in shown
    assert "bw=inf" in repr(Link("a", "b"))


# -- WireFormat -------------------------------------------------------------

def test_serialize_delay():
    assert WireFormat(serialize_rate=2_000_000.0).serialize_delay(1_000_000) \
        == pytest.approx(0.5)
    assert WireFormat().serialize_delay(10**9) == 0.0


# -- bandwidth presets ------------------------------------------------------

def test_presets_exist_and_are_ordered():
    for name in ("lan", "wan", "mobile"):
        assert name in BANDWIDTH_PRESETS
    assert BANDWIDTH_PRESETS["lan"].access \
        > BANDWIDTH_PRESETS["wan"].access \
        > BANDWIDTH_PRESETS["mobile"].access


def test_apply_preset_classifies_links():
    scenario = build_scenario(ScenarioSpec(
        n_clusters=2, cluster_size=2, n_members=0, bandwidth_preset="wan"))
    preset = BANDWIDTH_PRESETS["wan"]
    for link in scenario.net.topology.links():
        if "client" in link.endpoints():
            assert link.bandwidth == preset.access
        elif link.latency.expected() >= 0.02:
            assert link.bandwidth == preset.inter
        else:
            assert link.bandwidth == preset.intra


def test_apply_preset_rejects_unknown_name():
    with pytest.raises(KeyError):
        build_scenario(ScenarioSpec(n_members=0, bandwidth_preset="dialup"))


# -- byte-capped batch forming ----------------------------------------------

def _ops(sizes):
    return deque(
        _WriteOp(index=i, kind="add",
                 element=None,  # the planner never touches it
                 spec=AddSpec(name=f"m{i}", size=size))
        for i, size in enumerate(sizes))


def test_writeplanner_uncapped_forms_item_batches():
    planner = WritePlanner(batch_size=3)
    queue = _ops([100] * 5)
    assert len(planner.form(queue)) == 3
    assert len(planner.form(queue)) == 2


def test_writeplanner_byte_cap_limits_batches():
    planner = WritePlanner(batch_size=8, max_batch_bytes=2500)
    queue = _ops([1000, 1000, 1000, 1000])
    # each op costs 1000 + 96 overhead; two fit under 2500, not three
    assert len(planner.form(queue)) == 2
    assert len(planner.form(queue)) == 2


def test_writeplanner_oversized_op_ships_alone():
    planner = WritePlanner(batch_size=8, max_batch_bytes=1000)
    queue = _ops([50_000, 10, 10])
    assert len(planner.form(queue)) == 1       # huge op, alone
    assert len(planner.form(queue)) == 2       # the small ones coalesce


# -- end to end: wire time, byte metrics, queue delay -----------------------

def test_fetch_pays_wire_transfer_time():
    kernel, net, world, _ = standard_world()
    for link in net.topology.links():
        link.bandwidth = 1_000_000.0
    from repro.store import Element
    big = Element("big", "oid-big", "s1")
    world.server("s1").store_direct(big, value="x", size=3_000_000)
    repo = Repository(world, CLIENT)

    def proc():
        t0 = kernel.now
        yield from repo.fetch(big)
        return kernel.now - t0

    assert kernel.run_process(proc()) >= 3.0   # 3 MB over 1 MB/s


def test_byte_counters_and_families_populate():
    kernel, net, world, elements = standard_world(members=4)
    ws = DynamicSet(world, CLIENT, "coll", record=False)
    iterator = ws.elements()

    def proc():
        return (yield from iterator.drain())

    kernel.run_process(proc())
    metrics = kernel.obs.metrics
    total = metrics.value("net.bytes_sent")
    assert total > 0
    assert metrics.value("net.bytes_received") > 0
    families = (metrics.value("net.bytes_sent.object")
                + metrics.value("net.bytes_sent.membership")
                + metrics.value("net.bytes_sent.sync")
                + metrics.value("net.bytes_sent.shard")
                + metrics.value("net.bytes_sent.lock")
                + metrics.value("net.bytes_sent.control")
                + metrics.value("net.bytes_sent.other"))
    assert families == total
    assert metrics.value("net.bytes_sent.object") > 0
    assert metrics.value("net.bytes_sent.membership") > 0
    # the receiving side is counted from the same stamp
    received = sum(metrics.value(f"net.bytes_received.{family}")
                   for family in ("object", "membership", "sync", "shard",
                                  "lock", "control", "other"))
    assert received == metrics.value("net.bytes_received")


def test_queue_delay_observed_under_contention():
    kernel, net, world, _ = standard_world()
    for link in net.topology.links():
        link.bandwidth = 1_000_000.0
    from repro.store import Element
    blobs = []
    for i in range(4):
        e = Element(f"big{i}", f"oid-big{i}", "s1")
        world.server("s1").store_direct(e, value="x", size=400_000)
        blobs.append(e)
    repo = Repository(world, CLIENT)

    def fetch_one(e):
        yield from repo.fetch(e)

    def proc():
        from repro.sim.events import Fork, Join
        handles = []
        for e in blobs:
            h = yield Fork(fetch_one(e))
            handles.append(h)
        for h in handles:
            yield Join(h)

    kernel.run_process(proc())
    hist = kernel.obs.metrics.get("net.link.queue_delay")
    assert hist is not None and hist.count > 0
    assert hist.mean > 0


def test_wire_size_stamped_once():
    kernel, net, world, _ = standard_world()
    sent = []
    original = net.transport.send

    def spy(msg):
        delivered = original(msg)
        sent.append(msg)
        return delivered

    net.transport.send = spy

    def proc():
        return (yield from net.call(CLIENT, PRIMARY, "store",
                                    "list_members", "coll"))

    kernel.run_process(proc())
    assert sent and all(m.wire_size and m.wire_size > 0 for m in sent)


def test_byte_counts_independent_of_process_history():
    """Oids, iteration tokens, and msg ids must not leak process-global
    counter state into wire sizes: the same seeded scenario drained
    twice in one process moves byte-identical traffic."""
    def one_run():
        kernel, net, world, elements = standard_world(seed=7, members=8)
        repo = Repository(world, CLIENT)
        outcome = {}

        def drain():
            view = yield from repo.read_membership("coll")
            for element in sorted(view.members):
                yield from repo.fetch(element)
            outcome["done"] = True

        kernel.run_process(drain())
        assert outcome.get("done")
        return (kernel.obs.metrics.value("net.bytes_sent"),
                kernel.obs.metrics.value("net.bytes_received"))

    assert one_run() == one_run()
