"""What the trace recorder pays for, and what it must still see.

The recorder re-derives a state only when the world changed: ``s_σ`` and
the observer's reachable nodes are objects their owners keep until they
move, so a sample over an unchanged world is three identity tests and
builds nothing.  These tests count that (exact, seed-free), and hold
the shortcut to the changes nobody announces — a crash behind the
facade, a raw write to a member map, a replica copy dying — each of
which the next bracket must still see.
"""

from repro.spec.state import StateSnapshot
from repro.spec.termination import Returned, Yielded
from repro.spec.trace import TraceRecorder
from repro.store import Element

from helpers import CLIENT, PRIMARY, standard_world


def count_snapshots(monkeypatch):
    built = [0]
    original = StateSnapshot.__init__

    def counting(self, *args, **kwargs):
        built[0] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(StateSnapshot, "__init__", counting)
    return built


def probe(i):
    return Element(f"probe{i}", f"probe-{i}", "s0")


def test_completing_over_an_unchanged_world_builds_no_snapshot(monkeypatch):
    kernel, net, world, elements = standard_world(members=6)
    recorder = TraceRecorder(world, "coll", CLIENT)
    built = count_snapshots(monkeypatch)
    recorder.invocation_started()
    assert built[0] == 1                    # the entry state, stamped t_invoke
    world._notify()                         # an announced change that moved nothing
    recorder.invocation_completed(Yielded(probe(0)))
    assert built[0] == 1
    (only,) = recorder.trace.invocations[0].snapshots
    assert only.members == frozenset(elements)


def test_a_new_invocation_shares_the_last_snapshots_sets():
    kernel, net, world, elements = standard_world(members=6)
    recorder = TraceRecorder(world, "coll", CLIENT)
    recorder.invocation_started()
    first = recorder.invocation_completed(Yielded(probe(0))).exit_snapshot
    kernel.run(until=1.0)
    recorder.invocation_started()
    entry = recorder.invocation_completed(Yielded(probe(1))).entry_snapshot
    assert entry.time == 1.0 and entry is not first
    assert entry.members is first.members
    assert entry.reachable_nodes is first.reachable_nodes
    assert entry.live_replicas is first.live_replicas


def test_unannounced_changes_are_seen_at_the_next_bracket():
    kernel, net, world, elements = standard_world(members=6)
    recorder = TraceRecorder(world, "coll", CLIENT)
    state = world.server(PRIMARY).collections["coll"]

    def invocation(change):
        recorder.invocation_started()
        change()
        return recorder.invocation_completed(Yielded(probe(len(
            recorder.trace.invocations)))).snapshots

    # a crash behind the facade: no epoch moves, no listener hears it
    entry, exit_ = invocation(lambda: net.node("s2").crash())
    assert "s2" in entry.reachable_nodes and "s2" not in exit_.reachable_nodes
    # and its recovery, likewise behind the facade
    entry, exit_ = invocation(lambda: net.node("s2").recover())
    assert "s2" in exit_.reachable_nodes
    assert exit_.reachable_nodes == entry.reachable_nodes | {"s2"}
    # a raw write to the member map
    alias = Element("alias", elements[0].oid, elements[0].home)
    entry, exit_ = invocation(lambda: state.members.__setitem__("alias", alias))
    assert exit_.members == entry.members | {alias}


def test_a_replica_copy_dying_unannounced_is_seen_while_its_home_is_away():
    kernel, net, world, _ = standard_world(n_servers=4)
    element = world.seed_member("coll", "m", value="v", home="s1",
                                replicas=("s2",))
    recorder = TraceRecorder(world, "coll", CLIENT)
    recorder.invocation_started()
    recorder.invocation_completed(Yielded(probe(0)))
    net.crash("s1")
    recorder.invocation_started()
    [snap] = recorder.invocation_completed(Yielded(probe(1))).snapshots
    assert snap.live_replicas == {("s2", element.oid)}
    # tombstoned where nobody listens: the connectivity view is the
    # same object, the live copies are not
    world.servers["s2"].objects[element.oid].deleted = True
    recorder.invocation_started()
    [after] = recorder.invocation_completed(Returned()).snapshots
    assert after.reachable_nodes is snap.reachable_nodes
    assert after.live_replicas == frozenset()
    assert after.reachable_of(after.members) == frozenset()
