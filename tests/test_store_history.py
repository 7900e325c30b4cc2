"""The recorded ``s_σ`` history against a listener that samples the truth.

``CollectionInfo.history`` keeps, per change of the value, the partition
views the value is the union of — a single home's value, or each ring
node's owned view — so the partitions a write left alone are the
previous entry's objects; ``membership_history`` merges them on read.
The oracle here needs none of that: it subscribes to ``on_change`` and
records ``(now, true_members)`` whenever the value differs from the last
one it recorded.  The two must agree exactly, times and values, through
client writes, a rebalance's cutover and a write that leaves the value
equal.
"""

import dataclasses

from repro.sim import Join, Sleep
from repro.spec import check_conformance
from repro.store import AddSpec, Repository
from repro.weaksets import DynamicSet

from helpers import CLIENT, PRIMARY, drain_all, sharded_world, standard_world


def _oracle(world, coll_id="coll"):
    """``(now, true_members)`` at every change of the value, from now on."""
    seen = [(world.now, world.true_members(coll_id))]

    def sample():
        value = world.true_members(coll_id)
        if value != seen[-1][1]:
            seen.append((world.now, value))

    world.on_change(sample)
    return seen


def _churn(repo, coll_id="coll", n=24, homes=("s0", "s1", "s2"), prefix="w"):
    added = yield from repo.add_many(
        coll_id, [AddSpec(f"{prefix}{i:02d}", value=i,
                          home=homes[i % len(homes)])
                  for i in range(n)], window=4, batch_size=4)
    yield Sleep(0.05)
    yield from repo.remove_many(coll_id, added[::3], window=4, batch_size=4)
    return added


def test_history_equals_a_sampling_oracle_through_a_cutover():
    kernel, net, world, _ = sharded_world(n_shards=3, spare=1)
    seen = _oracle(world)
    for i in range(12):
        world.seed_member("coll", f"m{i:02d}", value=i, home=f"s{i % 3}")
    repo = Repository(world, CLIENT)
    before = world.collection_info("coll").shard_map.ring

    def run():
        rebalance = world.add_shard("coll", "x0")
        added = yield from _churn(repo)
        yield Join(rebalance)
        yield from _churn(repo, n=12, homes=("x0", "s1"), prefix="v")
        return added

    kernel.run_process(run())
    info = world.collection_info("coll")
    assert info.shard_map.ring is not before                # it cut over
    assert info.shard_map.ring.nodes == ("s0", "s1", "s2", "x0")
    # entries before the cutover hold three views, entries after it four
    assert len(info.history[0][1]) == 3 and len(info.history[-1][1]) == 4
    history = world.membership_history("coll")
    assert history[0] == (0.0, frozenset())
    assert history == seen
    assert len(history) > 30
    assert history[-1][1] == world.true_members("coll")
    assert world.check_invariants() == []


def test_history_equals_the_oracle_when_a_write_leaves_the_value_equal():
    kernel, net, world, _ = standard_world(members=0)
    seen = _oracle(world)
    elements = [world.seed_member("coll", f"m{i}", home=f"s{i % 4}")
                for i in range(4)]
    state = world.server(PRIMARY).collections["coll"]
    # an equal element with new replicas: a write, the same value
    moved = dataclasses.replace(elements[0], replicas=("s3",))
    state.members[moved.name] = moved
    world._membership_changed("coll")
    assert world.true_members("coll") == frozenset(elements)
    assert any(e is moved for e in world.true_members("coll"))
    repo = Repository(world, CLIENT)
    kernel.run_process(_churn(repo, n=8, homes=("s1", "s2")))
    history = world.membership_history("coll")
    assert history == seen
    assert [len(value) for _, value in history[:5]] == [0, 1, 2, 3, 4]
    # the equal write recorded nothing: the next entry is the churn's
    assert history[5][0] > 0.0


def test_consecutive_entries_share_the_views_of_unwritten_shards():
    kernel, net, world, _ = sharded_world(n_shards=3)
    for i in range(9):
        world.seed_member("coll", f"m{i:02d}", value=i)
    raw = world.collection_info("coll").history
    assert len(raw) == 10 and all(len(views) == 3 for _, views in raw)
    for (_, before), (_, after) in zip(raw, raw[1:]):
        # one seed writes one partition: the other two views are shared
        assert sum(a is b for a, b in zip(after, before)) == 2
    repo = Repository(world, CLIENT)
    kernel.run_process(_churn(repo))
    raw = world.collection_info("coll").history
    pairs = list(zip(raw[9:], raw[10:]))
    assert len(pairs) > 10
    shared = sum(a is b for (_, before), (_, after) in pairs
                 for a, b in zip(after, before))
    # a batch writes one shard, so most views are carried over
    assert shared >= len(pairs)
    # the merged history is the union of each entry's views
    for (time, value), (raw_time, views) in zip(
            world.membership_history("coll"), raw):
        assert time == raw_time and value == frozenset().union(*views)


def test_an_audit_merges_only_the_entries_in_its_window(monkeypatch):
    kernel, net, world, elements = sharded_world(n_shards=3, members=12)
    repo = Repository(world, CLIENT)
    kernel.run_process(_churn(repo))
    entries = len(world.collection_info("coll").history)
    ws = DynamicSet(world, CLIENT, "coll")
    drain_all(kernel, ws)
    merged = []
    info = world.collection_info("coll")
    merge = info.merged_history
    monkeypatch.setattr(info, "merged_history",
                        lambda raw: merged.append(len(raw)) or merge(raw))
    report = check_conformance(ws.last_trace, ws.spec, world)
    assert report.conformant, report.counterexample()
    assert entries > 20 and merged == [1]           # the one entry in force
    # the same verdict as from the merged history handed in whole
    assert check_conformance(ws.last_trace, ws.spec,
                             history=world.membership_history("coll")
                             ) == report
