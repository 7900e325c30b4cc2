"""Disconnected operation: offline reads, the outbox, and reconciliation.

Unit coverage for ``repro.store.offline``: DISCONNECTED state gating,
stale-while-offline serving, read-your-writes overlays, fail-fast
iterators (the ``DisconnectedError`` satellite), and the reconcile
classification — replay, tombstone drops, add/remove conflicts, and
local pair cancellation.
"""

import pytest

from repro.errors import DisconnectedError
from repro.spec import Failed, Returned, check_conformance, spec_by_id
from repro.store import ClientCache, FetchPipeline, OfflineClient, Repository
from repro.weaksets import DynamicSet, Figure1Set

from helpers import CLIENT, PRIMARY, standard_world, drain_all


def offline_world(members=6, policy="any", ttl=60.0, durable=True, **kwargs):
    kernel, net, world, elements = standard_world(
        members=members, policy=policy, **kwargs)
    cache = ClientCache(ttl=ttl)
    offline = OfflineClient(world, CLIENT, "coll", cache=cache,
                            durable_outbox=durable)
    return kernel, net, world, elements, offline


def warm(kernel, offline):
    """Populate the client cache with the current membership view."""
    return kernel.run_process(
        offline.repo.read_membership("coll", source="primary"))


# ---------------------------------------------------------------------------
# state gating + stale reads
# ---------------------------------------------------------------------------

def test_disconnect_gates_rpc_and_serves_stale_membership():
    kernel, net, world, elements, offline = offline_world()
    view = warm(kernel, offline)
    kernel.run(until=kernel.now + 1.0)      # let the cached view age
    offline.disconnect()
    assert offline.disconnected and offline.repo.disconnected
    assert not net.can_reach(CLIENT, PRIMARY)
    # Membership reads serve the stale cached view, TTL or not.
    served = kernel.run_process(
        offline.repo.read_membership("coll", source="primary"))
    assert served.members == view.members
    members = offline.read_members()
    assert members == view.members
    age = kernel.obs.metrics.histogram("offline.read_age")
    assert age.count >= 1 and age.vmax >= 1.0


def test_cold_cache_offline_read_raises_disconnected_error():
    kernel, net, world, elements, offline = offline_world()
    offline.disconnect()                     # nothing was ever cached
    with pytest.raises(DisconnectedError):
        offline.read_members()
    with pytest.raises(DisconnectedError):
        kernel.run_process(
            offline.repo.read_membership("coll", source="primary"))


def test_outbox_overlay_gives_read_your_writes():
    kernel, net, world, elements, offline = offline_world()
    warm(kernel, offline)
    offline.disconnect()
    added = offline.queue_add("offline-add", value="ov")
    offline.queue_remove(elements[0])
    members = offline.read_members()
    assert added in members
    assert elements[0] not in members
    assert offline.outbox.depth() == 2
    # Nothing touched the wire: ground truth is unchanged.
    assert added not in world.true_members("coll")
    assert elements[0] in world.true_members("coll")


# ---------------------------------------------------------------------------
# one rule for what a client answers without an RPC
# ---------------------------------------------------------------------------

def pipeline_read(kernel, repo, element, use_cache):
    """One element through a fresh one-worker FetchPipeline."""
    pipeline = FetchPipeline(repo, use_cache=use_cache, window=1,
                             batch_size=1)

    def run():
        pipeline.start()
        try:
            pipeline.submit([element])
            return (yield from pipeline.next_result())
        finally:
            pipeline.stop()
    return kernel.run_process(run())


def expired_object_offline(ttl=1.0):
    """A client whose cached copy of ``elements[0]`` outlived its TTL,
    then went DISCONNECTED."""
    kernel, net, world, elements, offline = offline_world(ttl=ttl)
    kernel.run_process(offline.repo.fetch(elements[0], use_cache=True))
    kernel.run(until=kernel.now + 5 * ttl)
    offline.disconnect()
    return kernel, elements[0], offline


def test_disconnected_cached_pipeline_serves_expired_object():
    kernel, element, offline = expired_object_offline()
    stale = kernel.obs.metrics.counter("offline.stale_served")
    result = pipeline_read(kernel, offline.repo, element, use_cache=True)
    assert (result.value, result.status, result.from_cache) == ("v0", "ok", True)
    assert stale.value == 1
    # A stale serve is not a TTL hit.
    assert kernel.obs.metrics.value("fetch.batch.cache_hits") == 0


@pytest.mark.parametrize("use_cache", [False, True])
def test_fetch_and_pipeline_serve_the_same_stale_value(use_cache):
    kernel, element, offline = expired_object_offline()
    metrics = kernel.obs.metrics
    stale = metrics.counter("offline.stale_served")
    age = metrics.histogram("offline.read_age")
    fetched = kernel.run_process(
        offline.repo.fetch(element, use_cache=use_cache))
    assert (stale.value, age.count) == (1, 1)
    result = pipeline_read(kernel, offline.repo, element, use_cache)
    assert (stale.value, age.count) == (2, 2)
    assert result.ok and result.from_cache
    assert result.value == fetched == "v0"


def test_crash_mid_reconcile_comes_back_connected_and_can_go_offline_again():
    kernel, net, world, elements, offline = offline_world()
    offline.window = offline.batch_size = 1     # a strictly serial drain
    warm(kernel, offline)
    offline.disconnect()
    for i in range(6):
        offline.queue_add(f"serial-{i}", value=i)
    offline.start_reconcile()
    kernel.run(until=kernel.now + 0.05)
    assert offline.state == "reconciling"
    net.crash(CLIENT)
    assert offline.state == "connected"
    assert offline.outbox.depth() > 0
    net.recover(CLIENT)
    assert net.can_reach(CLIENT, PRIMARY)
    offline.disconnect()
    assert offline.state == "disconnected"
    assert not net.can_reach(CLIENT, PRIMARY)
    report = kernel.run_process(offline.reconnect())
    assert net.can_reach(CLIENT, PRIMARY)
    assert report.failed == 0 and offline.outbox.depth() == 0
    assert world.check_invariants() == []


# ---------------------------------------------------------------------------
# satellite: fail-fast iterators while DISCONNECTED
# ---------------------------------------------------------------------------

def test_dynamic_iterator_fails_fast_offline_instead_of_retrying():
    kernel, net, world, elements, offline = offline_world()
    ws = DynamicSet(world, CLIENT, "coll", cache=offline.cache,
                    retry_interval=0.25, give_up_after=30.0)
    offline.attach(ws.repo)
    offline.disconnect()
    started = kernel.now
    result = drain_all(kernel, ws)
    assert isinstance(result.outcome, Failed)
    assert "disconnected" in result.outcome.reason
    # Fail-fast: nowhere near give_up_after, not even one retry sleep.
    assert kernel.now - started < 0.25


def test_dynamic_iterator_fails_fast_even_with_warm_membership():
    kernel, net, world, elements, offline = offline_world()
    warm(kernel, offline)
    ws = DynamicSet(world, CLIENT, "coll", cache=offline.cache,
                    retry_interval=0.25, give_up_after=30.0, use_cache=True)
    offline.attach(ws.repo)
    offline.disconnect()
    started = kernel.now
    result = drain_all(kernel, ws)
    # The stale view names members, but no value was ever cached: the
    # fetches fail DisconnectedError and the iterator gives up at once.
    assert isinstance(result.outcome, Failed)
    assert kernel.now - started < 0.25


def test_figure1_drains_offline_from_warm_cache_and_conforms():
    kernel, net, world, elements, offline = offline_world(policy="immutable")
    kernel.run_process(Repository(world, PRIMARY).seal("coll"))
    ws = Figure1Set(world, CLIENT, "coll", cache=offline.cache)
    offline.attach(ws.repo)
    warm(kernel, offline)
    offline.disconnect()
    result = drain_all(kernel, ws)
    # Figure 1's ensures clause has no reachability requirement on
    # yields: the cached snapshot is enough to finish the run offline.
    assert isinstance(result.outcome, Returned)
    assert len(result.yields) == len(elements)
    report = check_conformance(ws.last_trace, spec_by_id("fig1"), world)
    assert report.conformant, report.violations


# ---------------------------------------------------------------------------
# reconciliation
# ---------------------------------------------------------------------------

def test_reconcile_replays_queued_adds_and_removes():
    kernel, net, world, elements, offline = offline_world()
    warm(kernel, offline)
    offline.disconnect()
    added = offline.queue_add("offline-add", value="ov")
    offline.queue_remove(elements[0])
    report = kernel.run_process(offline.reconnect())
    assert report.replayed == 2
    assert report.conflicts == report.dropped == report.failed == 0
    truth = world.true_members("coll")
    assert added in truth and elements[0] not in truth
    assert offline.outbox.depth() == 0
    assert offline.state == "connected"
    assert world.check_invariants() == []


def test_reconcile_drops_remove_of_tombstoned_member():
    kernel, net, world, elements, offline = offline_world()
    warm(kernel, offline)
    offline.disconnect()
    victim = elements[0]
    offline.queue_remove(victim)
    # The same member is removed remotely while we are away: on
    # reconnect the tombstone wins and the local intent is a no-op.
    kernel.run_process(Repository(world, "s1").remove("coll", victim))
    assert victim not in world.true_members("coll")
    report = kernel.run_process(offline.reconnect())
    assert report.dropped == 1 and report.replayed == 0
    assert world.check_invariants() == []


def test_reconcile_conflicts_on_superseding_readd():
    kernel, net, world, elements, offline = offline_world()
    warm(kernel, offline)
    offline.disconnect()
    victim = elements[0]
    offline.queue_remove(victim)
    # Remote remove-then-re-add under the same name: the current member
    # is a different element, and our stale remove must not kill it.
    remote = Repository(world, "s1")
    kernel.run_process(remote.remove("coll", victim))
    readded = kernel.run_process(
        remote.add("coll", victim.name, value="new", home=victim.home))
    report = kernel.run_process(offline.reconnect())
    assert report.conflicts == 1 and report.replayed == 0
    assert readded in world.true_members("coll")
    assert world.check_invariants() == []


def test_reconcile_conflicts_on_remote_add_of_same_name():
    kernel, net, world, elements, offline = offline_world()
    warm(kernel, offline)
    offline.disconnect()
    offline.queue_add("contested", value="mine")
    remote_add = kernel.run_process(
        Repository(world, "s1").add("coll", "contested", value="theirs"))
    report = kernel.run_process(offline.reconnect())
    # Remote wins; replaying the local add would fail the whole batch.
    assert report.conflicts == 1 and report.replayed == 0
    truth = world.true_members("coll")
    assert remote_add in truth
    assert world.check_invariants() == []


def test_offline_add_remove_pair_cancels_locally():
    kernel, net, world, elements, offline = offline_world()
    warm(kernel, offline)
    offline.disconnect()
    ephemeral = offline.queue_add("ephemeral", value="tmp")
    offline.queue_remove(ephemeral)
    sent_before = net.kernel.obs.metrics.value("net.messages_sent")
    report = kernel.run_process(offline.reconnect())
    assert report.cancelled == 2 and report.replayed == 0
    assert ephemeral not in world.true_members("coll")
    # The pair never touched the wire (no RPC beyond the delta pull).
    assert net.kernel.obs.metrics.value("net.messages_sent") - sent_before <= 2


def test_reconcile_failure_keeps_entries_queued_for_retry():
    kernel, net, world, elements, offline = offline_world()
    warm(kernel, offline)
    offline.disconnect()
    offline.queue_add("patient", value="v")
    net.crash(PRIMARY)
    with pytest.raises(Exception):
        kernel.run_process(offline.reconnect())
    assert offline.outbox.depth() == 1        # nothing lost
    net.recover(PRIMARY)
    report = kernel.run_process(offline.reconcile())
    assert report.replayed == 1
    assert offline.outbox.depth() == 0
    assert world.check_invariants() == []
