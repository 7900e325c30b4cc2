"""The world's own oracles convict a broken world.

``World.check_invariants`` and ``World.reachable_of`` are the ground
truth behind E18, E24, every soak and the conformance judge, yet a run
that stays healthy never shows one of their checks firing.  Each test
here builds Figure 2's world (array ``a`` on N holding α, β, γ homed on
A, B, C; mirrored on B where a replica is needed), breaks exactly one
property by hand, and asserts that the oracle names that problem and no
other.
"""

from repro.net import FixedLatency, Network, full_mesh
from repro.sim import Kernel
from repro.store import Repository, World
from repro.store.reachability import figure2_world


def figure2_mirrored_on_b():
    """Figure 2 built by hand, with the array also mirrored on B (a
    replica of ``a``'s membership); seeding leaves the mirror up to
    date.  Returns the world."""
    kernel = Kernel()
    net = Network(kernel, full_mesh(["N", "A", "B", "C"], FixedLatency(0.01)))
    world = World(net)
    world.create_collection("a", primary="N", replicas=["B"])
    for name, value, home in (("alpha", "α", "A"), ("beta", "β", "B"),
                              ("gamma", "γ", "C")):
        world.seed_member("a", name, value=value, home=home)
    assert world.check_invariants() == []
    return world


def test_a_member_without_its_home_object_is_named():
    """Invariant 1: every member's data object exists at its home."""
    fig = figure2_world()
    del fig.world.servers["A"].objects[fig.alpha.oid]
    assert fig.world.check_invariants() == [
        "a: member alpha@A has no live object at its home"]


def test_a_ghost_that_is_not_a_member_is_named():
    """Invariant 2: a ghost is a member pending removal (§3.3)."""
    fig = figure2_world()
    fig.world.servers["N"].collections["a"].ghosts.add("delta")
    assert fig.world.check_invariants() == [
        "a: ghost 'delta' is not a member"]


def test_a_tombstoned_element_with_a_live_copy_is_named():
    """Invariant 5: a removal leaves no live copy (no orphan)."""
    fig = figure2_world()
    fig.kernel.run_process(Repository(fig.world, "N").remove("a", fig.alpha))
    assert fig.world.check_invariants() == []
    fig.world.servers["A"].objects[fig.alpha.oid].deleted = False
    assert fig.world.check_invariants() == [
        "a: removed element alpha@A still has a live copy on A (orphan)"]


def test_a_crashed_observer_reaches_nothing():
    """Figure 2's reachable(): a crashed node reaches no member, not
    even the one whose home it is."""
    fig = figure2_world()
    world = fig.world
    members = world.true_members("a")
    assert world.reachable_of(members, "A") == members
    fig.net.crash("A")
    assert world.reachable_of(members, "A") == frozenset()
    assert world.reachable_members("a", "A") == frozenset()
    # the rest of the world still reaches what the crash left it
    assert world.reachable_of(members, "N") == {fig.beta, fig.gamma}


def test_a_replica_that_runs_ahead_is_named():
    """Invariant 3: a replica never runs ahead of its source."""
    world = figure2_mirrored_on_b()
    world.servers["B"].collections["a"].version += 1
    assert world.check_invariants() == [
        "a: replica B at v4 is ahead of primary N v3"]


def test_an_up_to_date_replica_that_disagrees_is_named():
    """Invariant 3: a replica at its source's version agrees exactly."""
    world = figure2_mirrored_on_b()
    del world.servers["B"].collections["a"].members["gamma"]
    assert world.check_invariants() == [
        "a: replica B disagrees with N at the same version"]


def test_a_history_that_does_not_end_at_the_truth_is_named():
    """Invariant 4: the recorded history ends at the current truth (its
    last change, γ's arrival, goes unrecorded here)."""
    fig = figure2_world()
    history = fig.world.collections["a"].history
    assert history[-1][1] == (fig.world.true_members("a"),)
    del history[-1]
    assert fig.world.check_invariants() == ["a: membership history is stale"]
