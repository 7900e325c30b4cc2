"""Write-ahead intent log + recovery: crash-consistent multi-step mutations."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FailureException
from repro.net.failures import FaultSchedule
from repro.sim.events import Sleep
from repro.store import Repository, erase_step
from repro.store.wal import ABORTED, APPLIED, PENDING

from helpers import CLIENT, PRIMARY, standard_world


def test_erase_is_intent_logged_and_committed():
    kernel, net, world, elements = standard_world(members=4)
    victim = elements[1]                    # homed on s1, remote from primary
    repo = Repository(world, CLIENT)

    def proc():
        yield from repo.remove("coll", victim)

    kernel.run_process(proc())
    wal = world.server(PRIMARY).wal
    [record] = wal.records
    assert record.kind == "erase" and record.origin == "remove"
    assert record.elements == (victim,)     # a single erase is a batch of one
    assert record.status is APPLIED
    assert record.steps == ["begin", f"{victim.oid}:home-deleted", "membership"]
    assert world.check_invariants() == []


def test_failed_erase_aborts_intent_and_keeps_member():
    kernel, net, world, elements = standard_world(members=4)
    victim = elements[2]                    # homed on s2
    net.isolate("s2")
    repo = Repository(world, CLIENT)

    def proc():
        try:
            yield from repo.remove("coll", victim)
        except FailureException:
            return "failed"

    assert kernel.run_process(proc()) == "failed"
    wal = world.server(PRIMARY).wal
    [record] = wal.records
    assert record.status is ABORTED
    assert record.steps == ["begin"]
    assert victim in world.true_members("coll")   # deviation #3: remove fails whole
    net.rejoin("s2")
    assert world.check_invariants() == []


def test_crash_point_freezes_intent_mid_erase():
    """Crash between the home delete and the membership pop: the exact
    window that used to break "member => live object at home"."""
    kernel, net, world, elements = standard_world(members=4)
    victim = elements[0]                    # homed on the primary itself
    server = world.server(PRIMARY)
    server.wal.arm_crash("home-deleted")
    repo = Repository(world, CLIENT)

    def proc():
        try:
            yield from repo.remove("coll", victim)
            return "removed"
        except FailureException:
            return "crashed"

    assert kernel.run_process(proc()) == "crashed"
    assert not net.node(PRIMARY).up
    [record] = server.wal.pending()
    assert record.status is PENDING
    assert record.done(erase_step(victim, victim.home))
    assert not record.done("membership")
    # the inconsistent window is real: member listed, home object dead
    assert victim.name in server.collections["coll"].members
    assert not server.has_object(victim.oid)
    assert any("no live object" in p for p in world.check_invariants())


def test_recovery_replays_interrupted_erase():
    kernel, net, world, elements = standard_world(members=4)
    victim = elements[0]
    server = world.server(PRIMARY)
    server.wal.arm_crash("home-deleted")
    schedule = FaultSchedule().recover_at(2.0, PRIMARY)
    kernel.spawn(schedule.run(net), name="schedule", daemon=True)
    repo = Repository(world, CLIENT)

    def proc():
        try:
            yield from repo.remove("coll", victim)
        except FailureException:
            pass
        yield Sleep(8.0)                    # recovery replay + scrub settle

    kernel.run_process(proc())
    assert net.node(PRIMARY).up
    assert server.wal.pending() == []
    assert victim not in world.true_members("coll")   # removal rolled forward
    assert world.check_invariants() == []
    metrics = kernel.obs.metrics
    assert metrics.value("recovery.replays") >= 1
    assert metrics.value("recovery.intents_replayed") >= 1
    assert metrics.get("recovery.latency").count >= 1


def test_crash_at_begin_rolls_whole_erase_forward():
    kernel, net, world, elements = standard_world(members=4)
    victim = elements[1]                    # homed on s1: replay needs real RPC
    server = world.server(PRIMARY)
    server.wal.arm_crash("begin")
    schedule = FaultSchedule().recover_at(1.0, PRIMARY)
    kernel.spawn(schedule.run(net), name="schedule", daemon=True)
    repo = Repository(world, CLIENT)

    def proc():
        try:
            yield from repo.remove("coll", victim)
        except FailureException:
            pass
        yield Sleep(8.0)

    kernel.run_process(proc())
    assert victim not in world.true_members("coll")
    assert not world.server("s1").has_object(victim.oid)
    assert world.check_invariants() == []


def crash_recover_erase(step, batched):
    """Crash the primary at ``step`` of removing a replicated member,
    recover it, let replay + scrub settle; returns (world, victim)."""
    kernel, net, world, _ = standard_world(members=3, scrub_interval=1.0)
    victim = world.seed_member("coll", "victim", value="v", home="s1",
                               replicas=("s2",))
    world.server(PRIMARY).wal.arm_crash(step)
    schedule = FaultSchedule().recover_at(2.0, PRIMARY)
    kernel.spawn(schedule.run(net), name="schedule", daemon=True)
    repo = Repository(world, CLIENT)

    def proc():
        try:
            if batched:
                yield from repo.remove_many("coll", [victim])
            else:
                yield from repo.remove("coll", victim)
        except FailureException:
            pass
        yield Sleep(10.0)

    kernel.run_process(proc())
    return world, victim


@pytest.mark.parametrize("step", ["begin", "deleted:s2", "home-deleted"])
def test_single_and_batch_erase_recover_to_identical_state(step):
    """A single mutation is a batch of one: crash ``remove_member`` and
    ``remove_members([e])`` at every WAL step — each armed by its bare
    base name, which the suffix match finds on the namespaced step — and
    both leave the same record shape and the same recovered
    CollectionState behind (and no invariant violation)."""
    states = []
    for batched in (False, True):
        world, victim = crash_recover_erase(step, batched)
        server = world.server(PRIMARY)
        [record] = server.wal.records
        assert record.kind == "erase"
        assert record.origin == ("remove_many" if batched else "remove")
        assert record.elements == (victim,)
        assert record.steps == [
            "begin", f"{victim.oid}:deleted:s2", f"{victim.oid}:home-deleted",
            "membership"]
        assert world.kernel.obs.metrics.value("wal.crash_points") == 1
        assert world.kernel.obs.metrics.value("recovery.intents_replayed") == 1
        assert record.status is APPLIED
        assert world.check_invariants() == []
        assert victim not in world.true_members("coll")
        for holder in victim.locations:
            assert not world.server(holder).has_object(victim.oid)
        state = server.collections["coll"]
        states.append((dict(state.members), state.version,
                       dict(state.removed), set(state.unverified_removals)))
    assert states[0] == states[1]
    assert states[0][2]["victim"][1] == victim        # tombstoned, not lost


def test_wal_disabled_crash_leaves_dangling_member():
    """The ablation: same crash, no recovery protocol, lasting violation."""
    kernel, net, world, elements = standard_world(members=4, recovery_enabled=False)
    victim = elements[0]
    server = world.server(PRIMARY)
    server.wal.arm_crash("home-deleted")    # crash points fire either way
    schedule = FaultSchedule().recover_at(2.0, PRIMARY)
    kernel.spawn(schedule.run(net), name="schedule", daemon=True)
    repo = Repository(world, CLIENT)

    def proc():
        try:
            yield from repo.remove("coll", victim)
        except FailureException:
            pass
        yield Sleep(8.0)

    kernel.run_process(proc())
    assert net.node(PRIMARY).up
    assert server.wal.records == []         # nothing was retained
    problems = world.check_invariants()
    assert any("no live object" in p for p in problems)
    assert kernel.obs.metrics.value("recovery.replays") == 0


def test_blocked_replay_is_retried_by_scrub():
    """Recovery blocked by an unreachable holder leaves the intent
    pending; a later scrub round finishes the roll-forward."""
    kernel, net, world, elements = standard_world(members=4, scrub_interval=1.0)
    victim = elements[1]                    # homed on s1
    server = world.server(PRIMARY)
    server.wal.arm_crash("begin")           # crash before any delete
    net.isolate("s1")                       # and the home is unreachable
    schedule = (FaultSchedule()
                .recover_at(1.0, PRIMARY)   # replay runs, but s1 is cut off
                .rejoin_at(12.0, "s1"))
    kernel.spawn(schedule.run(net), name="schedule", daemon=True)
    repo = Repository(world, CLIENT)

    def proc():
        try:
            yield from repo.remove("coll", victim)   # times out at 5.0s
        except FailureException:
            pass
        yield Sleep(1.0)                    # t~6: replay + scrubs all blocked
        blocked_mid_way = len(world.server(PRIMARY).wal.pending())
        yield Sleep(10.0)                   # s1 rejoins at 12; scrub finishes
        return blocked_mid_way

    blocked_mid_way = kernel.run_process(proc())
    assert blocked_mid_way == 1             # replay could not reach s1
    assert server.wal.pending() == []       # scrub finished it after the heal
    assert victim not in world.true_members("coll")
    assert world.check_invariants() == []
    assert kernel.obs.metrics.value("recovery.intents_blocked") >= 1


def test_seal_is_intent_logged():
    kernel, net, world, _ = standard_world(policy="immutable")
    repo = Repository(world, CLIENT)

    def proc():
        yield from repo.seal("coll")

    kernel.run_process(proc())
    wal = world.server(PRIMARY).wal
    assert any(r.kind == "seal" and r.status is APPLIED for r in wal.records)


def test_armed_crash_point_is_one_shot():
    kernel, net, world, elements = standard_world(members=4)
    server = world.server(PRIMARY)
    server.wal.arm_crash("home-deleted")
    assert server.wal.armed() == ["home-deleted"]
    schedule = FaultSchedule().recover_at(1.0, PRIMARY)
    kernel.spawn(schedule.run(net), name="schedule", daemon=True)
    repo = Repository(world, CLIENT)

    def proc():
        try:
            yield from repo.remove("coll", elements[0])
        except FailureException:
            pass
        yield Sleep(4.0)
        yield from repo.remove("coll", elements[1])   # must not crash again
        yield Sleep(4.0)

    kernel.run_process(proc())
    assert server.wal.armed() == []
    assert net.node(PRIMARY).up
    assert elements[0] not in world.true_members("coll")
    assert elements[1] not in world.true_members("coll")
    assert world.check_invariants() == []


@pytest.mark.parametrize("enabled", [True, False])
def test_intent_retention_follows_recovery_flag(enabled):
    kernel, net, world, elements = standard_world(members=2,
                                                  recovery_enabled=enabled)
    repo = Repository(world, CLIENT)

    def proc():
        yield from repo.remove("coll", elements[0])

    kernel.run_process(proc())
    wal = world.server(PRIMARY).wal
    assert bool(wal.records) is enabled
    assert elements[0] not in world.true_members("coll")


@pytest.mark.parametrize("enabled", [True, False])
@settings(max_examples=150, deadline=None)
@given(ops=st.lists(st.tuples(st.sampled_from(("append", "commit", "abort")),
                              st.integers(0, 63)), max_size=40))
def test_pending_is_what_was_logged_and_not_yet_settled(enabled, ops):
    """After any append/commit/abort sequence, ``pending()`` is every
    logged record no commit or abort has settled, in log order (none
    when recovery is off: nothing is logged)."""
    _, _, world, elements = standard_world(members=2,
                                           recovery_enabled=enabled)
    wal = world.server(PRIMARY).wal
    appended, settled = [], set()
    for op, pick in ops:
        if op == "append":
            appended.append(wal.append("erase", "coll", (elements[0],),
                                       origin="remove"))
        elif appended:
            record = appended[pick % len(appended)]
            (wal.commit if op == "commit" else wal.abort)(record)
            settled.add(record.intent_id)
        expected = [r for r in appended if r.intent_id not in settled]
        assert wal.pending() == (expected if enabled else [])
