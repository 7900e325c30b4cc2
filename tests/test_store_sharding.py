"""The sharded membership registry: ring, routing, reads, rebalance."""

import pickle
import sys

import pytest

from repro.errors import (
    FailureException,
    ServerBusyFailure,
    SimulationError,
    WrongShardFailure,
)
from repro.net import CompactCodec
from repro.sim.events import Fork, Join, Sleep
from repro.store import (
    AddSpec,
    Element,
    HashRing,
    Repository,
    ShardMap,
    shard_state_id,
)

from helpers import (
    CLIENT,
    count_ring_hashes,
    fresh_oid,
    sharded_world,
    standard_world,
)


# ---------------------------------------------------------------------------
# HashRing / ShardMap units
# ---------------------------------------------------------------------------

def test_ring_placement_is_deterministic_and_total():
    a = HashRing(("s0", "s1", "s2"))
    b = HashRing(("s2", "s0", "s1"))          # node order must not matter
    names = [f"k{i}" for i in range(200)]
    assert [a.owner(n) for n in names] == [b.owner(n) for n in names]
    owned = {a.owner(n) for n in names}
    assert owned == {"s0", "s1", "s2"}        # no shard starves at 200 keys


def test_ring_seed_changes_placement():
    names = [f"k{i}" for i in range(100)]
    a = HashRing(("s0", "s1", "s2"), seed=0)
    b = HashRing(("s0", "s1", "s2"), seed=1)
    assert any(a.owner(n) != b.owner(n) for n in names)


def test_ring_grow_moves_keys_only_to_the_new_node():
    old = HashRing(("s0", "s1", "s2"))
    new = old.with_node("s3")
    names = [f"k{i}" for i in range(300)]
    moved = old.moved_names(names, new)
    assert moved                               # vnodes guarantee some motion
    assert set(moved.values()) == {"s3"}       # consistent hashing's promise
    for name in names:
        if old.owner(name) != new.owner(name):
            assert name in moved


def test_ring_shrink_reassigns_only_the_removed_nodes_keys():
    old = HashRing(("s0", "s1", "s2"))
    new = old.without_node("s1")
    for i in range(300):
        name = f"k{i}"
        if old.owner(name) != "s1":
            assert new.owner(name) == old.owner(name)
        else:
            assert new.owner(name) in ("s0", "s2")


def test_shard_map_legitimate_holders_during_migration():
    ring = HashRing(("s0", "s1"))
    target = ring.with_node("s2")
    smap = ShardMap(ring=ring, migration=target)
    moving = next(f"k{i}" for i in range(1000)
                  if target.owner(f"k{i}") == "s2")
    assert smap.shard_of(moving) == ring.owner(moving)
    assert smap.legitimate_holders(moving) == {ring.owner(moving), "s2"}
    settled = next(f"k{i}" for i in range(1000)
                   if target.owner(f"k{i}") != "s2")
    assert smap.legitimate_holders(settled) == {ring.owner(settled)}


def test_shard_state_id_namespaces_mirrors():
    assert shard_state_id("coll", "s1") == "coll@s1"


# -- what a ring remembers: once per name, never on the wire ----------------

#: the ring's pickled form at the parent of the memo, which must not move
WIRE_SLOTS = ["nodes", "vnodes", "seed", "_points", "_keys"]


def test_ring_hashes_a_name_at_most_once(monkeypatch):
    hashed = count_ring_hashes(monkeypatch)
    ring = HashRing(("s0", "s1", "s2"), vnodes=8, seed=3)
    assert len(hashed) == 3 * 8                 # construction: the points
    names = [f"k{i}" for i in range(50)]
    first = [ring.owner(n) for n in names]
    assert sorted(hashed[24:]) == sorted(f"3|{n}" for n in names)
    for _ in range(3):
        assert [ring.owner(n) for n in names] == first
        assert ring.moved_names(names, ring) == {}
        ShardMap(ring=ring, migration=ring).legitimate_holders("k7")
    assert len(hashed) == 24 + 50


def test_successor_rings_share_no_remembered_name(monkeypatch):
    ring = HashRing(("s0", "s1", "s2"))
    names = [f"k{i}" for i in range(40)]
    for n in names:
        ring.owner(n)
    grown, shrunk = ring.with_node("s3"), ring.without_node("s1")
    hashed = count_ring_hashes(monkeypatch)
    for successor in (grown, shrunk):
        assert successor._owners == {} and successor._owners is not ring._owners
        before = len(hashed)
        moved = ring.moved_names(names, successor)
        assert len(hashed) == before + 40       # the successor's, not ring's
        assert moved and all(successor.owner(n) == to for n, to in moved.items())
        assert len(hashed) == before + 40       # re-asking hashes nothing
    assert "s1" not in {shrunk.owner(n) for n in names}


def test_ordered_nodes_is_derived_once():
    ring = HashRing(("s2", "s0", "s1", "s3"), vnodes=4, seed=5)
    first: dict = {}
    for pos, node in ring._points:
        first.setdefault(node, pos)
    order = ring.ordered_nodes()
    assert order == tuple(sorted(first, key=lambda n: (first[n], n)))
    ring._points = None                         # a walk would now raise
    assert ring.ordered_nodes() is order
    with pytest.raises(TypeError):
        ring.owner("unasked")                   # ...as this one does


def test_ring_pickle_is_unmoved_by_what_was_asked():
    ring = HashRing(["a", "b", "c"])
    payload = (("coll", ring), {})
    pickled = pickle.dumps(ring, protocol=4)
    sized = CompactCodec().payload_size(payload)
    if sys.version_info[:2] == (3, 11):         # the Python CI pins
        assert len(pickled) == 1318
    for i in range(1000):
        ring.owner(f"k{i}")
    assert len(ring._owners) == 1000
    assert pickle.dumps(ring, protocol=4) == pickled
    assert CompactCodec().payload_size(payload) == sized
    none, state = ring.__reduce_ex__(4)[2]
    assert none is None and list(state) == WIRE_SLOTS


def test_round_tripped_ring_still_answers_and_remembers_nothing(monkeypatch):
    ring = HashRing(("s0", "s1", "s2"), vnodes=4, seed=9)
    names = [f"k{i}" for i in range(200)]
    owners = [ring.owner(n) for n in names]
    copy = pickle.loads(pickle.dumps(ring))
    assert copy == ring and hash(copy) == hash(ring)
    assert [getattr(copy, s) for s in WIRE_SLOTS] == \
        [getattr(ring, s) for s in WIRE_SLOTS]
    assert copy.ordered_nodes() == ring.ordered_nodes()
    assert copy._owners == {}
    hashed = count_ring_hashes(monkeypatch)
    assert [copy.owner(n) for n in names] == owners
    assert len(hashed) == 200
    assert copy.with_node("s3").owner("k0") == ring.with_node("s3").owner("k0")


def test_rebalance_sends_the_same_bytes_whatever_the_ring_was_asked():
    def bytes_sent(asked: int) -> int:
        kernel, net, world, elements = sharded_world(members=24, spare=1)
        world.add_shard("coll", "x0")
        target = world.collections["coll"].shard_map.migration
        for i in range(asked):                  # before it is ever shipped
            target.owner(f"asked-{i}")
        kernel.run(until=10.0)
        assert world.collections["coll"].shard_map.ring is target
        assert world.true_members("coll") == frozenset(elements)
        return kernel.obs.metrics.value("net.bytes_sent")

    assert bytes_sent(0) == bytes_sent(500) > 0


# ---------------------------------------------------------------------------
# create_collection validation (satellite: duplicate replicas)
# ---------------------------------------------------------------------------

def test_create_collection_rejects_duplicate_replicas():
    kernel, net, world, _ = standard_world()
    with pytest.raises(SimulationError, match="duplicate node ids"):
        world.create_collection("dup", primary="s0",
                                replicas=("s1", "s2", "s1"))


def test_create_collection_rejects_duplicate_replicas_sharded():
    kernel, net, world, _ = sharded_world(mirrors=2)
    with pytest.raises(SimulationError, match="duplicate node ids"):
        world.create_collection("dup", replicas=("m0", "m0"),
                                shards=("s0", "s1"))


def test_create_collection_rejects_shard_replica_overlap():
    kernel, net, world, _ = sharded_world()
    with pytest.raises(SimulationError):
        world.create_collection("overlap", replicas=("s1",),
                                shards=("s0", "s1"))


# ---------------------------------------------------------------------------
# Routing and scatter-gather reads
# ---------------------------------------------------------------------------

def test_registration_lands_on_the_owning_shard_only():
    kernel, net, world, _ = sharded_world()
    repo = Repository(world, CLIENT)

    def proc():
        els = []
        for i in range(20):
            e = yield from repo.add("coll", f"k{i}", value=i, size=0)
            els.append(e)
        return els

    els = kernel.run_process(proc())
    ring = world.collections["coll"].shard_map.ring
    placed = {node: set(state.members) for node, state
              in world.partition_states("coll")}
    for e in els:
        owner = ring.owner(e.name)
        assert e.name in placed[owner]
        for node, names in placed.items():
            if node != owner:
                assert e.name not in names
    assert world.check_invariants() == []


def test_scatter_read_merges_all_shards():
    kernel, net, world, elements = sharded_world(members=15)
    repo = Repository(world, CLIENT)

    def proc():
        return (yield from repo.read_membership("coll", source="primary"))

    view = kernel.run_process(proc())
    assert {e.name for e in view.members} == {e.name for e in elements}
    assert set(view.shard_versions) == {"s0", "s1", "s2"}
    assert view.version == sum(view.shard_versions.values())
    assert world.kernel.obs.metrics.value("shard.scatter_reads") >= 1


def test_wrong_shard_rejected_and_rerouted():
    kernel, net, world, _ = sharded_world()
    repo = Repository(world, CLIENT)
    ring = world.collections["coll"].shard_map.ring
    name = "needs-a-home"
    owner = ring.owner(name)
    wrong = next(n for n in ring.nodes if n != owner)

    element = Element(name=name, oid=fresh_oid(name), home=owner)

    def direct():
        yield from repo._call(owner, "put_object", element.oid, None, 0)
        yield from repo._call(wrong, "add_member", "coll", element)

    with pytest.raises(WrongShardFailure) as exc_info:
        kernel.run_process(direct())
    assert exc_info.value.owner == owner
    # Reclaim the probe's object so the orphan-GC invariant stays clean.
    kernel.run_process(repo._call(owner, "delete_object", element.oid))

    def routed():
        e = yield from repo.add("coll", "routed-fine", value=1, size=0)
        return e

    kernel.run_process(routed())
    assert world.check_invariants() == []


def test_batched_write_bounced_by_a_ring_swap_is_rerouted():
    """A membership batch planned against a ring that is swapped while
    the RPC is in flight bounces with WrongShardFailure; the pipeline
    re-resolves the live map, re-issues the sub-batch and counts it."""
    kernel, net, world, _ = sharded_world()
    repo = Repository(world, CLIENT)
    smap = world.collections["coll"].shard_map
    ring = smap.ring
    names = [n for n in (f"k{i}" for i in range(200))
             if ring.owner(n) == "s1"][:4]

    def swap():
        # puts round-trip by 0.02; add_members is on the wire until 0.03
        yield Sleep(0.025)
        smap.ring = ring.without_node("s1")

    def proc():
        yield Fork(swap(), name="swap", daemon=True)
        return (yield from repo.add_many(
            "coll", [AddSpec(n, value=1, home="s0") for n in names]))

    elements = kernel.run_process(proc())
    assert [e.name for e in elements] == names
    metrics = kernel.obs.metrics
    assert metrics.value("shard.write_reroutes") == 1
    assert metrics.value("write.batch.acked") == len(names)
    assert metrics.value("write.batch.failed") == 0
    placed = {node: set(state.members)
              for node, state in world.partition_states("coll")}
    assert "s1" not in placed
    for name in names:
        assert name in placed[smap.ring.owner(name)]
    assert world.check_invariants() == []


def test_mirror_fence_triggers_authoritative_reread():
    kernel, net, world, _ = sharded_world(mirrors=1, members=9,
                                          replica_lag=0.1)
    repo = Repository(world, CLIENT)

    # God-mode seeding populates mirrors instantly; wind m0 back so it
    # is genuinely stale, as it would be behind a missed sync round.
    mirror = world.server("m0")
    for shard in ("s0", "s1", "s2"):
        alias = mirror.collections[shard_state_id("coll", shard)]
        alias.members.clear()
        alias.member_versions.clear()
        alias.version = 0

    def proc():
        # Authoritative scatter read sets the per-shard fences.
        yield from repo.read_membership("coll", source="primary")
        # The mirror now answers below the fence: the read must detect
        # the violation and re-read authoritatively from the shards.
        view = yield from repo.read_membership("coll", source="m0")
        return view

    view = kernel.run_process(proc())
    assert len(view.members) == 9
    assert world.kernel.obs.metrics.value("shard.fence_rereads") >= 1


def test_mirrors_converge_per_shard():
    kernel, net, world, elements = sharded_world(mirrors=2, members=12,
                                                 replica_lag=0.1)

    def proc():
        yield Sleep(1.0)

    kernel.run_process(proc())
    for mirror in ("m0", "m1"):
        server = world.server(mirror)
        mirrored = set()
        for shard in ("s0", "s1", "s2"):
            state = server.collections[shard_state_id("coll", shard)]
            mirrored |= set(state.members)
    assert mirrored == {e.name for e in elements}
    assert world.check_invariants() == []


# ---------------------------------------------------------------------------
# Invariants on sharded worlds
# ---------------------------------------------------------------------------

def test_invariants_catch_member_parked_on_wrong_shard():
    kernel, net, world, elements = sharded_world(members=6)
    ring = world.collections["coll"].shard_map.ring
    victim = elements[0]
    wrong = next(n for n in ring.nodes if n != ring.owner(victim.name))
    state = world.server(wrong).collections["coll"]
    state.members[victim.name] = victim
    state.member_versions[victim.name] = 1
    problems = world.check_invariants()
    assert any(victim.name in p for p in problems)


def test_invariants_catch_undropped_range_copy():
    kernel, net, world, elements = sharded_world(members=6, spare=1)
    victim = elements[0]
    # A node that is off the ring hosting a primary-flavored partition
    # with members = a botched cutover that never dropped its range.
    from repro.store.server import CollectionState
    stray = CollectionState(coll_id="coll", policy="any", is_primary=True)
    stray.members[victim.name] = victim
    stray.member_versions[victim.name] = 1
    world.server("x0").collections["coll"] = stray
    problems = world.check_invariants()
    assert problems


# ---------------------------------------------------------------------------
# Migration primitives
# ---------------------------------------------------------------------------

def test_absorb_handoff_is_idempotent():
    kernel, net, world, elements = sharded_world(members=8, spare=1)
    target = world.server("x0")
    from repro.store.server import CollectionState
    target.collections["coll"] = CollectionState(
        coll_id="coll", policy="any", is_primary=True)
    adds = tuple((e.name, e) for e in elements[:4])

    def proc():
        first = yield from target.absorb_handoff("coll", adds)
        second = yield from target.absorb_handoff("coll", adds)
        return first, second

    first, second = kernel.run_process(proc())
    assert first == 4 and second == 0          # replay applies nothing
    state = target.collections["coll"]
    assert set(state.members) == {e.name for e in elements[:4]}


def test_freeze_rejects_moving_range_with_retry_hint():
    kernel, net, world, _ = sharded_world(spare=1)
    repo = Repository(world, CLIENT)
    info = world.collections["coll"]
    target_ring = info.shard_map.ring.with_node("x0")
    moving = next(f"k{i}" for i in range(1000)
                  if target_ring.owner(f"k{i}") == "x0")
    source = info.shard_map.ring.owner(moving)
    server = world.server(source)

    def proc():
        yield from server.freeze_range("coll", target_ring)
        element = Element(name=moving, oid=fresh_oid(moving), home=source)
        yield from repo._call(source, "put_object", element.oid, None, 0)
        try:
            yield from repo._call(source, "add_member", "coll", element)
        except ServerBusyFailure as exc:
            frozen = exc.retry_after
        else:
            frozen = None
        yield from server.unfreeze_range("coll")
        yield from repo._call(source, "add_member", "coll", element)
        return frozen

    frozen = kernel.run_process(proc())
    assert frozen is not None                  # busy hint, not an error
    assert moving in world.server(source).collections["coll"].members


def test_drop_range_bumps_epoch_without_tombstones():
    kernel, net, world, _ = sharded_world(spare=1)
    info = world.collections["coll"]
    old_ring = info.shard_map.ring
    target_ring = old_ring.with_node("x0")
    source = "s0"
    # Seed names that provably live on s0 now and move to x0 after.
    moving = [f"k{i}" for i in range(500)
              if old_ring.owner(f"k{i}") == source
              and target_ring.owner(f"k{i}") == "x0"][:3]
    staying = [f"k{i}" for i in range(500)
               if old_ring.owner(f"k{i}") == source
               and target_ring.owner(f"k{i}") == source][:3]
    assert moving and staying
    for name in moving + staying:
        world.seed_member("coll", name, value=name, home=source)
    state = world.server(source).collections["coll"]
    before_epoch = state.epoch

    def proc():
        return (yield from world.server(source).drop_range("coll",
                                                           target_ring))

    kernel.run_process(proc())
    assert state.epoch == before_epoch + 1
    for name in moving:
        assert name not in state.members
        assert name not in state.removed       # dropped, not tombstoned
    for name in staying:
        assert name in state.members           # the kept range is intact


# ---------------------------------------------------------------------------
# Live rebalance end to end
# ---------------------------------------------------------------------------

def _settle(kernel, world, budget=30.0):
    deadline = kernel.now + budget
    problems = world.check_invariants()
    while problems and kernel.now < deadline:
        kernel.run(until=kernel.now + 0.5)
        problems = world.check_invariants()
    return problems


def test_add_shard_preserves_membership():
    kernel, net, world, elements = sharded_world(members=24, spare=1)
    before = world.true_members("coll")

    def proc():
        yield Join(world.add_shard("coll", "x0"))
        yield Sleep(1.0)

    kernel.run_process(proc())
    smap = world.collections["coll"].shard_map
    assert smap.ring.nodes == ("s0", "s1", "s2", "x0")
    assert smap.generation == 1 and smap.migration is None
    assert world.true_members("coll") == before
    assert _settle(kernel, world) == []
    # The new shard actually owns keys.
    x0_members = world.server("x0").collections["coll"].members
    assert all(smap.ring.owner(n) == "x0" for n in x0_members)


def test_remove_shard_preserves_membership():
    kernel, net, world, elements = sharded_world(members=24)
    before = world.true_members("coll")

    def proc():
        yield Join(world.remove_shard("coll", "s2"))
        yield Sleep(1.0)

    kernel.run_process(proc())
    smap = world.collections["coll"].shard_map
    assert smap.ring.nodes == ("s0", "s1")
    assert world.true_members("coll") == before
    assert _settle(kernel, world) == []


def test_remove_shard_refuses_the_coordinator():
    kernel, net, world, _ = sharded_world()
    with pytest.raises(SimulationError):
        world.remove_shard("coll", world.collections["coll"].primary)


def test_concurrent_rebalances_are_refused():
    kernel, net, world, _ = sharded_world(members=40, spare=2)
    world.add_shard("coll", "x0")
    with pytest.raises(SimulationError):
        world.add_shard("coll", "x1")

    def proc():
        yield Sleep(30.0)

    kernel.run_process(proc())
    assert world.collections["coll"].shard_map.migration is None


def test_writes_continue_during_rebalance():
    kernel, net, world, elements = sharded_world(members=16, spare=1)
    repo = Repository(world, CLIENT)
    acked = []

    def writer():
        for i in range(30):
            try:
                e = yield from repo.add("coll", f"live-{i:02d}", value=i,
                                        size=0)
                acked.append(e)
            except FailureException:
                pass
            yield Sleep(0.05)

    def proc():
        from repro.sim.events import Fork
        child = yield Fork(writer(), name="live-writer")
        yield Sleep(0.2)
        yield Join(world.add_shard("coll", "x0"))
        yield Join(child)
        yield Sleep(1.0)

    kernel.run_process(proc())
    truth = {e.name for e in world.true_members("coll")}
    for e in acked:
        assert e.name in truth                 # nothing acked was lost
    assert _settle(kernel, world) == []
