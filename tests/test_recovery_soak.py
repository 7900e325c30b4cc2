"""Seeded recovery chaos soak (ISSUE 3 acceptance gate).

Every schedule crashes the collection primary *mid-erase* — at the
``home-deleted`` WAL step, inside the window where the home object is
gone but the member is still listed — then recovers it at a seeded
random time and adds extra seeded crash/recover churn on another node.

With the WAL + recovery protocol on, every schedule must settle with
zero invariant violations.  With recovery ablated
(``recovery_enabled=False``), the *same* schedules must each leave at
least one lasting violation (the dangling member).
"""

import pytest

from repro.errors import FailureException
from repro.net.failures import FaultSchedule
from repro.store import Repository

from helpers import CLIENT, PRIMARY, standard_world

pytestmark = pytest.mark.chaos

N_SCHEDULES = 24
SCRUB = 1.0


def run_schedule(seed, recovery_enabled):
    """One seeded crash/recover schedule; returns (world, problems)."""
    kernel, net, world, elements = standard_world(
        members=8, replicas=2, seed=seed, recovery_enabled=recovery_enabled,
        scrub_interval=SCRUB)
    rng = kernel.stream("soak.schedule")
    server = world.server(PRIMARY)
    repo = Repository(world, CLIENT)

    victim = next(e for e in elements if e.home == PRIMARY)
    other = next(e for e in elements if e.home != PRIMARY)
    server.wal.arm_crash("home-deleted")

    schedule = FaultSchedule()
    recover_at = rng.uniform(1.0, 3.0)
    schedule.recover_at(recover_at, PRIMARY)
    # extra churn: a seeded crash/recover of some replica or home node
    extra = rng.choice(["s1", "s2", "s3"])
    extra_down = rng.uniform(0.5, 4.0)
    schedule.crash_at(extra_down, extra)
    schedule.recover_at(extra_down + rng.uniform(0.5, 2.0), extra)
    kernel.spawn(schedule.run(net), name="schedule", daemon=True)

    def client():
        try:
            yield from repo.remove("coll", victim)   # interrupted by the crash
        except FailureException:
            pass
        try:
            yield from repo.remove("coll", other)    # ordinary post-crash traffic
        except FailureException:
            pass

    kernel.run_process(client())
    for node in sorted(net.nodes):                   # heal whatever is still down
        if not net.node(node).up:
            net.recover(node)
    kernel.run(until=kernel.now + 4 * SCRUB)         # replay + scrub settle
    return world, world.check_invariants()


@pytest.mark.parametrize("seed", range(N_SCHEDULES))
def test_wal_recovery_survives_mid_erase_crash(seed):
    world, problems = run_schedule(seed, recovery_enabled=True)
    assert problems == []
    # the interrupted removal was rolled forward, not lost
    wal = world.server(PRIMARY).wal
    assert wal.pending() == []
    assert any(step.endswith(":home-deleted")
               for r in wal.records for step in r.steps)


@pytest.mark.parametrize("seed", range(N_SCHEDULES))
def test_ablation_same_schedule_violates_without_recovery(seed):
    world, problems = run_schedule(seed, recovery_enabled=False)
    assert len(problems) >= 1
    assert any("no live object" in p for p in problems)


def test_soak_schedules_are_deterministic():
    w1, p1 = run_schedule(0, recovery_enabled=True)
    w2, p2 = run_schedule(0, recovery_enabled=True)
    assert p1 == p2 == []
    assert (w1.kernel.obs.metrics.snapshot()
            == w2.kernel.obs.metrics.snapshot())
