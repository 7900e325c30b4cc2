"""Reconnect-reconciliation chaos soak: crash the client mid-drain.

Twenty-four seeded schedules.  Each one warms a client cache, goes
DISCONNECTED, queues a seeded mix of adds and removes while a remote
node churns tombstones, then starts the reconcile drain and crashes the
client partway through it.  With the durable (WAL-modeled) outbox the
second reconcile must be item-precise: every queued add lands exactly
once (no double-applies from replaying already-transmitted intents, no
lost tail), every queued remove lands, and the world's invariants hold.
The ablation leg (``durable_outbox=False``) must measurably leak.

E21c's flapping leg runs here too, at four seeds and both of its DC
partition rates: an ``OfflineClient`` flaps for 30 simulated seconds
while it writes into the outbox and remote churn runs; after heal and
reconnect the outbox must be empty, something must have replayed, and
the world's invariants must hold.
"""

import pytest

from repro.bench.exp_disconnected import geo_flap
from repro.net import FaultSchedule
from repro.store import ClientCache, OfflineClient, Repository
from repro.store.offline import LOST

from helpers import CLIENT, standard_world

pytestmark = [pytest.mark.chaos, pytest.mark.disconnected]

N_SCHEDULES = 24


def run_schedule(seed: int, durable: bool):
    """One soak run; returns (world, offline, added, victims)."""
    kernel, net, world, elements = standard_world(members=8, seed=seed)
    cache = ClientCache(ttl=60.0)
    offline = OfflineClient(world, CLIENT, "coll", cache=cache,
                            durable_outbox=durable, window=1, batch_size=1)
    kernel.run_process(offline.repo.read_membership("coll", source="primary"))
    stream = kernel.stream("soak")

    offline.disconnect()
    added = [offline.queue_add(f"offline-{seed}-{i:02d}", value=f"v{i}")
             for i in range(stream.randint(3, 6))]
    victims = [elements[0], elements[1]]
    for victim in victims:
        offline.queue_remove(victim)
    # Remote churn while we are away: a tombstone the reconcile pull
    # must bring back (it was in our cached base view).
    churned = elements[2]
    kernel.run_process(Repository(world, "s1").remove("coll", churned))

    # Reconnect + drain in the background, and crash the client while
    # the drain is provably still in flight: window=1/batch_size=1 makes
    # it strictly serial, so 5-8 entries take well over the 0.05-0.10s
    # crash point (each RPC round trip alone is 0.02s).
    offline.start_reconcile()
    schedule = FaultSchedule()
    schedule.crash_at(stream.uniform(0.05, 0.10), CLIENT)
    schedule.recover_at(0.5, CLIENT)
    kernel.spawn(schedule.run(net), name="soak-schedule", daemon=True)
    kernel.run(until=kernel.now + 2.0)

    # Recovery pass: drain whatever the crash left queued.
    if offline.outbox.depth() > 0:
        kernel.run_process(offline.reconcile())
    return world, offline, added, victims + [churned]


@pytest.mark.parametrize("seed", range(N_SCHEDULES))
def test_durable_outbox_is_item_precise_across_crash(seed):
    world, offline, added, gone = run_schedule(seed, durable=True)
    names = sorted(e.name for e in world.true_members("coll"))
    for element in added:
        # Exactly once: pre-minted oids + idempotent re-registration
        # mean a replayed-but-unsettled intent cannot double-apply.
        assert names.count(element.name) == 1, (seed, element.name, names)
    for element in gone:
        assert element.name not in names, (seed, element.name)
    assert offline.outbox.depth() == 0
    assert not any(e.status == LOST for e in offline.outbox.entries)
    assert world.check_invariants() == []


@pytest.mark.parametrize("seed", range(N_SCHEDULES))
def test_volatile_outbox_measurably_leaks(seed):
    world, offline, added, _ = run_schedule(seed, durable=False)
    lost = [e for e in offline.outbox.entries if e.status == LOST]
    assert lost, f"seed {seed}: crash landed after the drain finished"
    # The drain tail was never transmitted: at least one lost add is
    # simply gone from the reconciled membership.
    names = {e.name for e in world.true_members("coll")}
    leaked = [e for e in lost
              if e.kind == "add" and e.element.name not in names]
    assert leaked, f"seed {seed}: no adds leaked despite {len(lost)} lost"
    assert world.check_invariants() == []


def test_soak_is_deterministic():
    runs = []
    for _ in range(2):
        world, offline, _, _ = run_schedule(0, durable=True)
        runs.append((sorted(e.name for e in world.true_members("coll")),
                     [e.status for e in offline.outbox.entries],
                     world.net.kernel.obs.metrics.snapshot()))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("dc_rate", [0.0, 0.1])
@pytest.mark.parametrize("seed", range(4))
def test_flapping_client_reconciles_after_heal(seed, dc_rate):
    scenario, offline, flaps = geo_flap(seed, disconnect_rate=0.5,
                                        dc_rate=dc_rate)
    assert flaps, f"seed {seed}: the client never flapped"
    assert offline.state == "connected"
    assert offline.outbox.depth() == 0
    assert scenario.kernel.obs.metrics.value("reconcile.replayed") > 0
    assert scenario.world.check_invariants() == []
