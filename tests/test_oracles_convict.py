"""The world's own oracles convict a broken world.

``World.check_invariants`` and ``World.reachable_of`` are the ground
truth behind E18, E24, every soak and the conformance judge, yet a run
that stays healthy never shows one of their checks firing.  Each test
here builds Figure 2's world (array ``a`` on N holding α, β, γ homed on
A, B, C), breaks exactly one property by hand, and asserts that the
oracle names that problem and no other.
"""

from repro.store import Repository
from repro.store.reachability import figure2_world


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
