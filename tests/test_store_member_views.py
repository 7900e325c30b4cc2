"""Ground-truth freshness: ``CollectionState.value()`` / ``.snapshot()``
and ``members.owned(ring, shard)`` — a partition's share of a sharded
``s_σ`` — are remembered views of ``members``, and the ``members``
container itself keeps them right: a write journals the names it wrote,
the next read patches the value and owned views from that journal, and
the listing (and, for the bulk mutators, every view) is dropped.

A ``version`` compare could not do this job — a batch add writes
``members`` and then parks on the WAL with ``version`` unmoved, and
recovery, anti-entropy, handoff and the tests write on their own
schedules — so each way ``members`` is written, in ``src/`` or by a raw
dict mutator, is checked here: right after the write the views equal a
from-scratch recomputation and hold the map's own element objects, and
between writes they are one object.
"""

import contextlib
import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.net.failures import FaultSchedule
from repro.sim.events import Sleep
from repro.store import AddSpec, Element, HashRing, Repository
from repro.store.antientropy import apply_delta
from repro.store.server import CollectionState, MemberMap
from repro.weaksets import DynamicSet

from helpers import CLIENT, PRIMARY, drain_all, sharded_world, standard_world


def _element(name: str, home: str = "s0") -> Element:
    return Element(name=name, oid=f"{name}-oid", home=home)


#: the placement a bare state's owned view is read under
RING, SHARD = HashRing(("s0", "s1")), "s0"


def _fill(state: CollectionState, ring: HashRing = RING, shard: str = SHARD):
    """Read all three views (so a write that failed to drop them would
    leave them stale) and check they are remembered."""
    value, listing = state.value(), state.snapshot()[1]
    owned = state.members.owned(ring, shard)
    assert state.value() is value
    assert state.snapshot()[1] is listing
    assert state.members.owned(ring, shard) is owned
    return value, listing, owned


def assert_fresh(state: CollectionState, ring: HashRing = RING,
                 shard: str = SHARD) -> None:
    members = dict.values(state.members)        # the raw container, no views
    assert_same_objects(state.value(), members)
    assert state.snapshot() == (state.version, tuple(sorted(members)))
    assert_same_objects(state.members.owned(ring, shard),
                        [e for e in members if ring.owner(e.name) == shard])
    _fill(state, ring, shard)


def assert_same_objects(view, elements) -> None:
    """``view`` is the set of exactly these element objects (an equal
    element with other ``replicas`` is not the same member view)."""
    assert view == frozenset(elements)
    assert {id(e) for e in view} == {id(e) for e in elements}


def _all_states(world):
    return [state for server in world.servers.values()
            for state in server.collections.values()]


def _placed_states(world):
    """``(state, ring, shard)`` for every state on every server: a
    sharded collection's partition is read under the placement ground
    truth reads it under *right now* (so the watchdog shares, and would
    see, the very view ``true_members`` is merged from)."""
    for node, server in world.servers.items():
        for state in server.collections.values():
            info = world.collections.get(state.coll_id)
            if info is not None and info.is_sharded:
                yield state, info.shard_map.ring, node
            else:
                yield state, RING, SHARD


def _watch(kernel, world, period: float):
    """A daemon that, every ``period``, checks every collection state on
    every server against a recomputation and re-reads its views — so a
    write between two ticks that kept a stale view is caught at the
    second, whichever code path made it.  Returns ``(ticks, stale)``;
    the caller asserts ``stale`` stayed empty (a daemon's own assertion
    would die with it, unseen)."""
    ticks, stale = [], []

    def watchdog():
        while True:
            for state, ring, shard in _placed_states(world):
                try:
                    assert_fresh(state, ring, shard)
                except AssertionError as exc:
                    stale.append((kernel.now, state.coll_id, exc))
            ticks.append(kernel.now)
            yield Sleep(period)

    kernel.spawn(watchdog(), name="view-watchdog", daemon=True)
    return ticks, stale


# -- the container: every raw dict mutator ----------------------------------

A, B, C = _element("a"), _element("b"), _element("c")
assert RING.owner("a") != RING.owner("b")       # one member on each side

MUTATORS = {
    "__setitem__": lambda m: m.__setitem__("c", C),
    "__setitem__ (overwrite)": lambda m: m.__setitem__("a", _element("a", "s1")),
    "__delitem__": lambda m: m.__delitem__("a"),
    "pop": lambda m: m.pop("a"),
    "pop (default)": lambda m: m.pop("zz", None),
    "popitem": lambda m: m.popitem(),
    "setdefault (new)": lambda m: m.setdefault("c", C),
    "setdefault (present)": lambda m: m.setdefault("a", C),
    "update (mapping)": lambda m: m.update({"c": C}),
    "update (pairs)": lambda m: m.update([("c", C)], d=_element("d")),
    "|=": lambda m: m.__ior__({"c": C}),
    "clear": lambda m: m.clear(),
}


@pytest.mark.parametrize("mutator", MUTATORS)
def test_every_dict_mutator_drops_the_views(mutator):
    # every mutator changes what one of the two shards owns
    for shard in RING.nodes:
        # built from a plain dict, as a test fixture would
        state = CollectionState(coll_id="c", policy="any", is_primary=True,
                                members={"a": A, "b": B})
        value, listing, owned = _fill(state, RING, shard)
        assert value == {A, B} and listing == (A, B)
        assert owned == ({A} if shard == RING.owner("a") else {B})
        MUTATORS[mutator](state.members)
        assert_fresh(state, RING, shard)


def test_augmented_assignment_keeps_the_container():
    state = CollectionState(coll_id="c", policy="any", is_primary=True)
    container = state.members
    _fill(state)
    state.members |= {"c": C}
    assert state.members is container
    assert_fresh(state)
    assert state.value() == {C}


def test_a_failed_write_leaves_the_views_right():
    state = CollectionState(coll_id="c", policy="any", is_primary=True,
                            members={"a": A})
    _fill(state)
    with pytest.raises(KeyError):
        state.members.pop("zz")
    with pytest.raises(KeyError):
        del state.members["zz"]
    assert_fresh(state)

    def pairs():
        yield "b", B
        state.value()                   # a read half way through the update
        yield "c", C
        raise RuntimeError("source ran dry")

    with pytest.raises(RuntimeError):
        state.members.update(pairs())
    assert set(state.members) == {"a", "b", "c"}
    assert_fresh(state)


def test_views_are_shared_between_writes_and_replaced_by_one():
    kernel, net, world, elements = standard_world(members=5)
    state = world.server(PRIMARY).collections["coll"]
    value = world.true_members("coll")
    assert world.true_members("coll") is value is state.value()
    version, listing = state.snapshot()
    assert state.snapshot()[1] is listing
    # connectivity changes do not touch membership
    net.isolate("s2")
    net.heal()
    assert world.true_members("coll") is value
    world.seed_member("coll", "late", home="s1")
    assert world.true_members("coll") is not value
    assert value == frozenset(elements)             # the old view is intact
    assert_fresh(state)


def test_a_ring_swap_with_no_member_write_yields_the_new_rings_answer():
    state = CollectionState(coll_id="c", policy="any", is_primary=True,
                            members={n: _element(n) for n in "abcdefgh"})
    other = HashRing(("s0", "s1"), seed=1)
    mine, theirs = (frozenset(e for e in state.members.values()
                              if ring.owner(e.name) == SHARD)
                    for ring in (RING, other))
    assert mine != theirs
    assert state.members.owned(RING, SHARD) == mine
    assert state.members.owned(other, SHARD) == theirs      # nothing written
    assert state.members.owned(RING, "s1") == state.value() - mine
    # identity, not equality, is the key: an equal ring is a new placement
    # object (a cutover back to an old ring shape), and is asked afresh
    twin = HashRing(RING.nodes)
    assert twin == RING and twin._owners == {}
    assert state.members.owned(twin, SHARD) == mine
    assert set(twin._owners) == set("abcdefgh")

    # the world: a cutover by hand, no partition written
    kernel, net, world, elements = sharded_world(n_shards=3, members=24)
    smap = world.collection_info("coll").shard_map
    before = world.true_members("coll")
    assert before == frozenset(elements)
    smap.ring = shrunk = smap.ring.without_node("s2")
    after = world.true_members("coll")
    assert after == frozenset(
        e for node, state in world.partition_states("coll")
        for e in dict.values(state.members) if shrunk.owner(e.name) == node)
    assert after < before and world.true_members("coll") is after


# -- patched, not rebuilt ----------------------------------------------------

#: the two placements the property reads owned views under
RINGS = (RING, HashRing(("s0", "s1", "s2"), seed=1))
NAMES = "abcdef"


def _version(name: str, oid: int, replicas: int) -> Element:
    return Element(name=name, oid=f"{name}-{oid}", home="s0",
                   replicas=(("s1",), ("s1", "s2"), ())[replicas])


names = st.sampled_from(NAMES)
#: ``(name, oid, replicas)``: two oids make a re-add a different member,
#: three replica tuples make an overwrite an equal but different object
versions = st.builds(_version, names, st.integers(0, 1), st.integers(0, 2))
#: one step: a kind (the one-name writes and the reads drawn most), the
#: element a one-name write writes, the elements a bulk write writes, and
#: the placement an owned read reads under
KINDS = ("set", "set", "del", "pop", "pop-default", "setdefault",
         "setdefault", "update", "|=", "popitem", "clear",
         "value", "value", "owned", "owned")
steps = st.tuples(st.sampled_from(KINDS), versions,
                  st.lists(versions, max_size=3),
                  st.tuples(st.integers(0, 1), st.sampled_from(["s0", "s1", "s2"])))


def _apply(members, kind, one, bulk) -> None:
    with contextlib.suppress(KeyError):
        if kind == "set":
            members[one.name] = one
        elif kind == "del":
            del members[one.name]
        elif kind == "pop":
            members.pop(one.name)
        elif kind == "pop-default":
            members.pop(one.name, None)
        elif kind == "setdefault":
            members.setdefault(one.name, one)
        elif kind == "update":
            members.update((e.name, e) for e in bulk)
        elif kind == "|=":
            members |= {e.name: e for e in bulk}
        elif kind == "popitem":
            members.popitem()
        elif kind == "clear":
            members.clear()


def _read_value(members) -> None:
    assert_same_objects(members.value(), dict.values(members))


def _read_owned(members, placement) -> None:
    ring, shard = RINGS[placement[0]], placement[1]
    assert_same_objects(members.owned(ring, shard),
                        [e for e in dict.values(members)
                         if ring.owner(e.name) == shard])


@given(st.lists(versions, max_size=4),
       st.lists(steps, min_size=8, max_size=40))
def test_views_read_at_any_point_equal_a_recomputation(initial, script):
    members = MemberMap({e.name: e for e in initial})
    held = None                     # the placement of the owned view held
    for kind, one, bulk, placement in script:
        if kind == "value":
            _read_value(members)
        elif kind == "owned":
            held = placement
        else:
            _apply(members, kind, one, bulk)
            continue
        # every read also re-reads the owned view it holds, so a stale
        # patch is seen before a read under another placement replaces it
        if held is not None:
            _read_owned(members, held)
    # and at the end, under every placement
    _read_value(members)
    for ring_index, ring in enumerate(RINGS):
        for shard in ring.nodes:
            _read_owned(members, (ring_index, shard))


def _held(*elements) -> MemberMap:
    """A map of ``elements`` with its value and both owned views of
    ``RING`` held (one per shard: the second replaces the first)."""
    members = MemberMap({e.name: e for e in elements})
    assert members.value() == frozenset(elements)
    members.owned(RING, SHARD)
    return members


def test_a_name_written_twice_between_reads():
    members = _held(A, B)
    value, owned = members.value(), members.owned(RING, "s0")
    members["a"] = a1 = _version("a", 1, 0)
    members["a"] = a2 = _version("a", 0, 1)     # equal to A, other replicas
    members["c"] = C
    del members["c"]
    assert_same_objects(members.value(), [a2, B])
    assert_same_objects(members.owned(RING, "s0"),
                        [e for e in (a2, B) if RING.owner(e.name) == "s0"])
    assert value == {A, B} and a1 not in members.value()
    assert owned == frozenset(e for e in (A, B) if RING.owner(e.name) == "s0")


def test_delete_then_readd_an_equal_element():
    members = _held(A, B)
    del members["a"]
    assert_same_objects(members.value(), [B])
    again = Element(name="a", oid="a-oid", home="s0")
    assert again == A and again is not A
    members["a"] = again
    view = members.value()
    assert_same_objects(view, [again, B])
    assert any(e is again for e in view) and not any(e is A for e in view)


def test_an_overwrite_by_an_equal_element_with_new_replicas_is_seen():
    # the wire sizes ``replicas`` and the recorder reads them: the view
    # must hold the new object, not the equal old one
    members = _held(A, B)
    shard = RING.owner("a")
    owned = members.owned(RING, shard)
    moved = dataclasses.replace(A, replicas=("s1", "s2"))
    members["a"] = moved
    assert members.value() == {A, B}
    (held,) = [e for e in members.value() if e.name == "a"]
    assert held is moved and held.replicas == ("s1", "s2")
    (held,) = members.owned(RING, shard)
    assert held is moved and members.owned(RING, shard) is not owned


def test_a_write_the_owned_view_does_not_own_keeps_it():
    members = _held(A, B)
    other = RING.owner("a")
    owned = members.owned(RING, other)
    assert RING.owner("c") != other
    members["c"] = C
    assert members.owned(RING, other) is owned
    members.setdefault("a", C)                  # listed: writes nothing
    assert members.owned(RING, other) is owned and members["a"] is A
    assert_same_objects(members.value(), [A, B, C])


# -- the write sites in src/ ------------------------------------------------

def test_seed_member_and_the_mirrors_it_pushes_to():
    kernel, net, world, _ = standard_world(replicas=2)
    for state in _all_states(world):
        _fill(state)
    world.seed_member("coll", "x", home="s3")
    states = _all_states(world)
    assert len(states) == 3 and all(len(s.members) == 1 for s in states)
    for state in states:
        assert_fresh(state)


def test_add_remove_and_replica_sync_under_a_watchdog():
    """add_member, add_members, _erase/forget and the replicas'
    apply_delta, end to end: a watchdog compares every state with a
    recomputation several times per service time."""
    kernel, net, world, elements = standard_world(members=4, replicas=2,
                                                  replica_lag=0.05)
    ticks, stale = _watch(kernel, world, period=world.service_time / 4)
    repo = Repository(world, CLIENT)

    def churn():
        one = yield from repo.add("coll", "solo", value=1, home="s1")
        many = yield from repo.add_many(
            "coll", [AddSpec(f"b{i}", value=i, home=f"s{i % 4}")
                     for i in range(9)], window=2, batch_size=4)
        yield from repo.remove("coll", one)
        yield from repo.remove_many("coll", many[:5] + elements[:2],
                                    window=2, batch_size=3)

    kernel.run_process(churn())
    kernel.run(until=kernel.now + 1.0)              # replicas catch up
    assert len(ticks) > 100 and stale == []
    expected = {e.name for e in elements[2:]} | {f"b{i}" for i in range(5, 9)}
    for state in _all_states(world):
        assert set(state.members) == expected
        assert_fresh(state)


@pytest.mark.parametrize("step", ["begin", "b001:added", "b003:added"])
def test_add_members_parked_mid_wal_step_and_recoverys_setdefault(step):
    """The write a version compare misses: the handler has inserted
    members and parked on the WAL; ``version`` has not moved, nothing was
    notified, yet ground truth already lists them.  Recovery then writes
    the rest through ``setdefault``."""
    kernel, net, world, elements = standard_world(members=3, scrub_interval=1.0)
    server = world.server(PRIMARY)
    state = server.collections["coll"]
    before_version = state.version
    before_value = _fill(state)[0]
    server.wal.arm_crash(step)
    kernel.spawn(FaultSchedule().recover_at(8.0, PRIMARY).run(net),
                 name="schedule", daemon=True)
    repo = Repository(world, CLIENT)
    kernel.run_process(repo.add_many(
        "coll", [AddSpec(f"b{i:03d}", value=i, home=PRIMARY) for i in range(4)],
        window=1, batch_size=4, on_failure="skip"))
    # crashed at `step`: the inserts up to it landed, the version bump did not
    landed = 0 if step == "begin" else int(step[1:4]) + 1
    assert not net.node(PRIMARY).up
    assert state.version == before_version
    assert len(state.members) == 3 + landed
    assert_fresh(state)
    assert world.true_members("coll") == before_value | {
        state.members[f"b{i:03d}"] for i in range(landed)}
    _fill(state)
    kernel.run(until=kernel.now + 10.0)             # recover + roll forward
    assert server.wal.pending() == []
    assert {f"b{i:03d}" for i in range(4)} <= set(state.members)
    assert_fresh(state)


def test_apply_delta_on_a_shadow_state():
    """Anti-entropy's writer, on a state built the way the offline
    reconciler builds its shadow: a bare ``CollectionState`` filled by
    ``members[...] =`` from a base view, then ``apply_delta``."""
    shadow = CollectionState("c", policy="any", is_primary=False)
    for element in (A, B):
        _fill(shadow)
        shadow.members[element.name] = element
        shadow.member_versions[element.name] = 2
        assert_fresh(shadow)
    shadow.version = 2
    reborn = Element(name="b", oid="b-oid-2", home="s1")
    delta = {"version": 5, "sealed": False, "ghosts": (), "epoch": 0,
             "adds": (("b", reborn, 5), ("c", C, 4)),
             "removes": (("a", 3, A), ("b", 3, B))}
    assert apply_delta(shadow, delta) == 4
    assert shadow.value() == {reborn, C}
    assert_fresh(shadow)


def test_rebalance_handoff_drop_and_mirror_resync_under_a_watchdog():
    """absorb_handoff at the gaining shard, drop_range/forget at the
    losing ones, and the mirrors' epoch resync (``members.clear()``)."""
    kernel, net, world, elements = sharded_world(
        n_shards=3, mirrors=1, members=24, replica_lag=0.05, spare=1)
    kernel.run(until=1.0)                           # mirrors in sync
    ticks, stale = _watch(kernel, world, period=world.service_time / 4)
    resyncs = kernel.obs.metrics.counter("sync.epoch_resyncs")
    assert resyncs.value == 0
    world.add_shard("coll", "x0")
    kernel.run(until=kernel.now + 5.0)
    assert world.collection_info("coll").shard_map.migration is None
    gained = world.server("x0").collections["coll"]
    assert gained.members                            # absorb_handoff wrote here
    assert resyncs.value >= 1                        # a mirror cleared and re-pulled
    assert len(ticks) > 100 and stale == []
    assert world.true_members("coll") == frozenset(elements)
    assert world.check_invariants() == []
    for state, ring, shard in _placed_states(world):
        assert_fresh(state, ring, shard)


# -- the recorder sees what a version-keyed view would hide -----------------

def test_recorded_fig6_drain_sees_a_half_applied_add_batch():
    """A recorded Fig 6 drain runs while ``add_many`` is in flight and the
    primary crashes two inserts into the batch.  The recorder samples
    ground truth at that world change: six seeded members plus the two
    that landed, at an unmoved ``version`` — the state a view keyed on
    ``version`` would have reported as the old six."""
    kernel, net, world, elements = standard_world(members=6, scrub_interval=1.0)
    server = world.server(PRIMARY)
    state = server.collections["coll"]
    seeded_version = state.version
    server.wal.arm_crash("b001:added")
    kernel.spawn(FaultSchedule().recover_at(2.0, PRIMARY).run(net),
                 name="schedule", daemon=True)
    writer = Repository(world, "s3")
    kernel.spawn(writer.add_many(
        "coll", [AddSpec(f"b{i:03d}", value=i, home="s1") for i in range(4)],
        window=1, batch_size=4, on_failure="skip"), name="writer", daemon=True)
    seen = []                       # (version, |s_σ|) at every world change
    world.on_change(lambda: seen.append(
        (state.version, len(world.true_members("coll")))))

    ws = DynamicSet(world, CLIENT, "coll", retry_interval=0.25)
    drain_all(kernel, ws)

    assert (seeded_version, 8) in seen
    recorded = [snap for inv in ws.last_trace.invocations
                for snap in inv.snapshots]
    sizes = [len(snap.members) for snap in recorded]
    assert sizes[0] == 6 and 8 in sizes and sizes[-1] == 10
    half = next(snap for snap in recorded if len(snap.members) == 8)
    assert {e.name for e in half.members} == (
        {e.name for e in elements} | {"b000", "b001"})
