"""A sharded collection's ground truth against an uncached reference.

``World.true_members`` of a sharded collection is merged from one
remembered view per shard (``MemberMap.owned``: what the partition lists
*and* the ring assigns to it), and the ring remembers each name's owner.
The state machine below interleaves every way the answer can change —
the client write paths, ``add_shard`` / ``remove_shard`` run to
completion and stopped half way, crashes planted on a WAL step or on the
migration target, recovery, and raw dict writes on owning and non-owning
partitions — and after every step, and at every change the world
notifies, compares it with a reference computed here from the
partitions' raw dicts and ``hashlib`` alone: no ``HashRing``, no views.

The counting tests after it pin the mechanism: which questions are
answered from memory, and what forgets them.
"""

import hashlib

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import ReproError
from repro.net.failures import FaultSchedule
from repro.store import AddSpec, Element, Repository
from repro.store.server import MemberMap

from helpers import CLIENT, count_ring_hashes, sharded_world

SHARDS = ("s0", "s1", "s2")
SPARES = ("x0", "x1")
NAMES = [f"k{i:02d}" for i in range(16)]

names = st.sampled_from(NAMES)
name_lists = st.lists(names, min_size=1, max_size=5, unique=True)
servers = st.sampled_from(SHARDS + SPARES)


# -- the reference: recomputed from scratch on every question -------------

def _pos(token: str) -> int:
    return int.from_bytes(
        hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest(), "big")


def ref_owner(nodes, vnodes: int, seed: int, name: str):
    """Clockwise successor of the name's point among the nodes' points."""
    points = sorted((_pos(f"{seed}|{node}|{i}"), node)
                    for node in nodes for i in range(vnodes))
    at = _pos(f"{seed}|{name}")
    return next((node for point, node in points if point > at), points[0][1])


def ref_truth(world, coll_id: str = "coll") -> frozenset:
    """Merge every ring node's raw ``members``; a name counts only where
    the ring puts it."""
    ring = world.collections[coll_id].shard_map.ring
    truth = set()
    for shard in ring.nodes:
        state = world.servers[shard].collections.get(coll_id)
        for name, element in dict.items(state.members if state else {}):
            if ref_owner(ring.nodes, ring.vnodes, ring.seed, name) == shard:
                truth.add(element)
    return frozenset(truth)


class ShardedTruthMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.kernel, self.net, self.world, _ = sharded_world(
            n_shards=len(SHARDS), spare=len(SPARES), members=8, mirrors=1,
            replica_lag=0.05, scrub_interval=0.5)
        self.repo = Repository(self.world, CLIENT)
        self.mismatches = []
        self.world.on_change(self.compare)

    # -- the comparison ----------------------------------------------------
    def compare(self):
        """Runs inside the simulation at every notified change, where an
        assertion would be swallowed with its process: record instead."""
        got, expected = self.world.true_members("coll"), ref_truth(self.world)
        if got != expected or self.world.true_members("coll") is not got:
            self.mismatches.append((self.kernel.now, got, expected))

    @invariant()
    def truth_matches_the_reference(self):
        self.compare()
        assert self.mismatches == []

    # -- plumbing ----------------------------------------------------------
    def drive(self, gen):
        def guarded():
            try:
                yield from gen
            except ReproError:
                pass                # a refused or failed write is a step too

        self.kernel.run_process(guarded())

    def listed(self, wanted):
        """Elements currently listed anywhere under the wanted names."""
        found = {}
        for _, state in self.world.partition_states("coll"):
            for name in wanted:
                if name in state.members:
                    found[name] = dict.__getitem__(state.members, name)
        return list(found.values())

    def partition(self, node):
        return self.world.servers[node].collections.get("coll")

    @property
    def smap(self):
        return self.world.collections["coll"].shard_map

    # -- the client write paths ----------------------------------------------
    @rule(name=names, home=st.sampled_from(SHARDS))
    def add(self, name, home):
        self.drive(self.repo.add("coll", name, value=name, home=home))

    @rule(wanted=name_lists)
    def add_many(self, wanted):
        self.drive(self.repo.add_many(
            "coll", [AddSpec(n, value=n, home="s1") for n in wanted],
            window=2, batch_size=3, on_failure="skip"))

    @rule(name=names)
    def remove(self, name):
        for element in self.listed([name]):
            self.drive(self.repo.remove("coll", element))

    @rule(wanted=name_lists)
    def remove_many(self, wanted):
        self.drive(self.repo.remove_many(
            "coll", self.listed(wanted), window=2, batch_size=3,
            on_failure="skip"))

    # -- rebalancing: started here, finished (or not) by ``tick`` ------------
    @rule(node=st.sampled_from(SPARES), settle=st.booleans())
    def add_shard(self, node, settle):
        if self.smap.migration is None and node not in self.smap.ring:
            self.world.add_shard("coll", node)
            self.tick(8.0 if settle else 0.03)

    @rule(node=st.sampled_from(SHARDS[1:] + SPARES), settle=st.booleans())
    def remove_shard(self, node, settle):
        if self.smap.migration is None and node in self.smap.ring:
            self.world.remove_shard("coll", node)
            self.tick(8.0 if settle else 0.03)

    @rule(dt=st.sampled_from([0.01, 0.05, 0.3, 2.0]))
    def tick(self, dt):
        self.kernel.run(until=self.kernel.now + dt)

    # -- faults and recovery ---------------------------------------------------
    @rule(node=servers, step=st.sampled_from(["begin", "added", "home-deleted"]))
    def crash_on_wal_step(self, node, step):
        self.kernel.spawn(
            FaultSchedule().crash_on_wal_step(0.0, node, step).run(self.net),
            name="arm", daemon=True)

    @rule()
    def crash_migration_target(self):
        pending = self.smap.migration
        if pending is not None:
            gaining = [n for n in pending.nodes if n not in self.smap.ring]
            for node in gaining or pending.nodes[-1:]:
                self.net.crash(node)

    @rule(node=servers)
    def recover(self, node):
        self.net.recover(node)

    # -- raw writes, behind every protocol's back ----------------------------
    @rule(node=servers, name=names)
    def raw_setitem(self, node, name):
        state = self.partition(node)
        if state is not None:
            state.members[name] = Element(name, f"raw-{name}-{node}", home=node)

    @rule(node=servers, name=names)
    def raw_delitem(self, node, name):
        state = self.partition(node)
        if state is not None and name in state.members:
            del state.members[name]

    @rule(node=servers, wanted=name_lists)
    def raw_update(self, node, wanted):
        state = self.partition(node)
        if state is not None:
            state.members.update(
                {n: Element(n, f"raw-{n}-{node}", home=node) for n in wanted})

    @rule(node=servers)
    def raw_clear(self, node):
        state = self.partition(node)
        if state is not None:
            state.members.clear()


ShardedTruthMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None)
TestShardedTruth = ShardedTruthMachine.TestCase


# -- the mechanism, counted -------------------------------------------------

def _storm(kernel, repo):
    """200 adds and 100 removes through the batched write path."""
    def proc():
        added = yield from repo.add_many(
            "coll", [AddSpec(f"w{i:03d}", value=i, home=SHARDS[i % 3])
                     for i in range(200)], window=4, batch_size=8)
        yield from repo.remove_many("coll", added[::2], window=4, batch_size=8)

    kernel.run_process(proc())


def test_a_storm_hashes_each_name_once_per_ring(monkeypatch):
    hashed = count_ring_hashes(monkeypatch)
    kernel, net, world, _ = sharded_world(n_shards=4, spare=0)
    ring = world.collections["coll"].shard_map.ring
    assert len(hashed) == len(ring.nodes) * ring.vnodes
    del hashed[:]
    _storm(kernel, Repository(world, CLIENT))
    assert world.check_invariants() == []
    assert len(world.true_members("coll")) == 100
    assert sorted(hashed) == sorted(f"{ring.seed}|w{i:03d}" for i in range(200))


def test_a_commit_rebuilds_only_the_written_shards_view(monkeypatch):
    kernel, net, world, _ = sharded_world(n_shards=4, spare=0, members=40)
    states = dict(world.partition_states("coll"))
    rebuilt = []
    owned = MemberMap.owned

    def counting(self, ring, shard):
        before = self._owned
        view = owned(self, ring, shard)
        if self._owned is not before:
            rebuilt.append(shard)
        return view

    monkeypatch.setattr(MemberMap, "owned", counting)
    truth = world.true_members("coll")
    assert rebuilt == []                        # seeding left them built
    ring = world.collections["coll"].shard_map.ring
    repo = Repository(world, CLIENT)
    kernel.run_process(repo.add("coll", "one-more", value=1, home="s0"))
    assert rebuilt == [ring.owner("one-more")]
    grown = world.true_members("coll")
    assert grown is not truth and len(grown) == 41
    for shard, state in states.items():         # the other three: untouched
        if shard != ring.owner("one-more"):
            assert state.members.owned(ring, shard) <= truth
    assert rebuilt == [ring.owner("one-more")]


def test_true_members_is_one_object_until_a_write_or_a_cutover():
    kernel, net, world, elements = sharded_world(members=12, spare=1)
    truth = world.true_members("coll")
    assert world.true_members("coll") is truth == frozenset(elements)
    assert world.reachable_members("coll", CLIENT) == truth
    assert world.check_invariants() == []
    net.isolate("s1")                           # connectivity is not membership
    net.heal()
    assert world.true_members("coll") is truth
    # a write that changes nothing is still a write: new object, equal value
    state = world.server("s0").collections["coll"]
    name = next(iter(state.members))
    state.members[name] = state.members[name]
    again = world.true_members("coll")
    assert again is not truth and again == truth
    assert world.true_members("coll") is again
    # a write at a shard that does not own the name changes no answer
    stray = next(e for e in elements if e.name not in state.members)
    state.members[stray.name] = Element(stray.name, "a-copy", home="s0")
    assert world.true_members("coll") == truth == ref_truth(world)
    del state.members[stray.name]
    # a ring node that hosts no partition contributes nothing (its views
    # were not written: the *number* of views is part of the question)
    last = world.collections["coll"].shard_map.ring.nodes[-1]
    unhosted = world.server(last).collections.pop("coll")
    assert world.true_members("coll") == truth - unhosted.value()
    assert world.true_members("coll") == ref_truth(world) != truth
    world.server(last).collections["coll"] = unhosted
    assert world.true_members("coll") == truth
    # a cutover swaps the ring: every view is the old ring's, none is kept
    before = world.true_members("coll")
    world.add_shard("coll", "x0")
    kernel.run(until=kernel.now + 8.0)
    assert world.collections["coll"].shard_map.migration is None
    after = world.true_members("coll")
    assert after is not before and after == before == ref_truth(world)
    assert world.true_members("coll") is after
