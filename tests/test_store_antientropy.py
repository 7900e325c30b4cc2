"""RPC anti-entropy: replicas pull version diffs instead of god-mode copies."""

from repro.errors import FailureException
from repro.sim.events import Sleep
from repro.store import Element, Repository, apply_delta
from repro.store.server import CollectionState

from helpers import CLIENT, PRIMARY, standard_world


def replica_members(world, node, coll_id="coll"):
    return dict(world.server(node).collections[coll_id].members)


# ---------------------------------------------------------------------------
# the sync protocol end to end
# ---------------------------------------------------------------------------

def test_replica_pulls_adds_over_rpc():
    kernel, net, world, _ = standard_world(replicas=2, replica_lag=0.2)
    repo = Repository(world, CLIENT)
    sent_before = net.kernel.obs.metrics.value("net.messages_sent")

    def proc():
        yield from repo.add("coll", "fresh", value="x", home="s3")
        yield Sleep(1.0)                      # a few replica_lag periods

    kernel.run_process(proc())
    for node in ("s1", "s2"):
        assert "fresh" in replica_members(world, node)
    metrics = kernel.obs.metrics
    assert metrics.value("sync.rounds") > 0
    assert metrics.value("sync.entries") > 0
    # sync is real traffic now, not a memory copy
    assert net.kernel.obs.metrics.value("net.messages_sent") > sent_before
    assert world.check_invariants() == []


def test_removal_propagates_as_tombstone():
    kernel, net, world, elements = standard_world(members=4, replicas=1,
                                                  replica_lag=0.2)
    victim = elements[2]
    repo = Repository(world, CLIENT)

    def proc():
        yield Sleep(0.5)                      # replica catches up with seeds
        assert victim.name in replica_members(world, "s1")
        yield from repo.remove("coll", victim)
        yield Sleep(1.0)

    kernel.run_process(proc())
    replica_state = world.server("s1").collections["coll"]
    assert victim.name not in replica_state.members
    assert victim.name in replica_state.removed
    assert world.check_invariants() == []


def test_partitioned_replica_goes_stale_then_catches_up():
    kernel, net, world, _ = standard_world(replicas=1, replica_lag=0.2)
    repo = Repository(world, CLIENT)
    metrics = kernel.obs.metrics

    def proc():
        net.isolate("s1")
        yield from repo.add("coll", "late", value="x", home="s2")
        yield Sleep(1.5)
        stale = "late" not in replica_members(world, "s1")
        failures_while_cut = metrics.value("sync.failures")
        net.rejoin("s1")
        yield Sleep(1.5)
        return stale, failures_while_cut

    stale, failures_while_cut = kernel.run_process(proc())
    assert stale                              # last synchronized state served
    assert failures_while_cut > 0             # each failed round was counted
    assert "late" in replica_members(world, "s1")
    assert world.check_invariants() == []


def test_crashed_replica_catches_up_after_recovery():
    kernel, net, world, _ = standard_world(replicas=1, replica_lag=0.2)
    repo = Repository(world, CLIENT)

    def proc():
        net.crash("s1")
        yield from repo.add("coll", "late", value="x", home="s2")
        yield Sleep(1.0)
        net.recover("s1")
        yield Sleep(1.0)

    kernel.run_process(proc())
    assert "late" in replica_members(world, "s1")
    assert world.check_invariants() == []


def test_sync_uses_rpc_not_direct_mutation():
    """The syncer's calls go through the wire: rpc.attempts from replicas
    to the primary, visible as sync.round spans with rpc children."""
    kernel, net, world, _ = standard_world(replicas=1, replica_lag=0.2)

    def proc():
        yield Sleep(1.0)

    kernel.run_process(proc())
    tracer = kernel.obs.tracer
    rounds = tracer.spans("sync.round")
    assert rounds
    attempts = tracer.spans("rpc.attempt")
    synced = [a for a in attempts
              if any(s.name == "sync.round" for s in tracer.ancestors(a))]
    assert synced                             # real wire attempts under sync


# ---------------------------------------------------------------------------
# apply_delta unit behaviour
# ---------------------------------------------------------------------------

def _state():
    return CollectionState(coll_id="c", policy="any", is_primary=False)


def test_apply_delta_orders_removes_before_adds():
    state = _state()
    old = Element("x", "oid-1", "s1")
    new = Element("x", "oid-2", "s1")
    state.members["x"] = old
    state.member_versions["x"] = 1
    applied = apply_delta(state, {
        "version": 4, "sealed": False, "ghosts": [],
        "removes": [("x", 2, old)],
        "adds": [("x", new, 3)],              # re-added under the same name
    })
    assert applied == 2
    assert state.members["x"] == new          # the re-add wins
    assert state.version == 4


def test_apply_delta_ignores_stale_tombstone():
    state = _state()
    new = Element("x", "oid-2", "s1")
    state.members["x"] = new
    state.member_versions["x"] = 5            # re-add already applied
    applied = apply_delta(state, {
        "version": 6, "sealed": False, "ghosts": [],
        "removes": [("x", 2, Element("x", "oid-1", "s1"))],
        "adds": [],
    })
    assert applied == 1
    assert state.members["x"] == new          # stale tombstone did nothing
    assert "x" not in state.removed


def test_apply_delta_remove_wins_version_tie():
    """Pin the tie-break: the skip guard is strictly ``known > version``,
    so a tombstone at exactly the member's known version still applies.
    A tie means the remove happened *at* the version this replica last
    heard about the member — the remove is news, not staleness."""
    state = _state()
    old = Element("x", "oid-1", "s1")
    state.members["x"] = old
    state.member_versions["x"] = 2            # known == tombstone version
    applied = apply_delta(state, {
        "version": 3, "sealed": False, "ghosts": [],
        "removes": [("x", 2, old)],
        "adds": [],
    })
    assert applied == 1
    assert "x" not in state.members           # the tie goes to the remove
    assert "x" in state.removed


def test_apply_delta_carries_seal_and_ghosts():
    state = _state()
    applied = apply_delta(state, {
        "version": 9, "sealed": True, "ghosts": ["g1"],
        "removes": [], "adds": [],
    })
    assert applied == 0
    assert state.sealed and state.ghosts == {"g1"}


def test_sync_delta_full_resync_for_future_replica():
    """A replica claiming a version the primary never issued (e.g. after
    a primary rollback in some other test universe) gets a full diff."""
    kernel, net, world, elements = standard_world(members=3, replicas=1)
    server = world.server(PRIMARY)

    def proc():
        delta = yield from server.sync_delta("coll", 10_000)
        return delta

    delta = kernel.run_process(proc())
    assert {name for name, _, _ in delta["adds"]} == {e.name for e in elements}


def test_sync_delta_is_incremental():
    kernel, net, world, elements = standard_world(members=3, replicas=1)
    server = world.server(PRIMARY)
    state = server.collections["coll"]

    def proc():
        delta = yield from server.sync_delta("coll", state.version)
        return delta

    delta = kernel.run_process(proc())
    assert not delta["adds"] and not delta["removes"]


def test_remove_unreachable_then_sync_failure_counted():
    kernel, net, world, elements = standard_world(members=4, replicas=1,
                                                  replica_lag=0.2)
    repo = Repository(world, CLIENT)
    victim = elements[2]                      # homed on s2

    def proc():
        net.isolate("s2")
        try:
            yield from repo.remove("coll", victim)
        except FailureException:
            pass
        net.rejoin("s2")
        yield Sleep(1.0)

    kernel.run_process(proc())
    # the failed remove changed nothing, so the replica agrees with the
    # primary and invariants hold through the partition and back
    assert victim.name in replica_members(world, "s1")
    assert world.check_invariants() == []
