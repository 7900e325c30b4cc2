"""LockService unit behaviours beyond the StrongSet integration tests."""


from repro.errors import LockUnavailableFailure, TimeoutFailure
from repro.sim import Sleep
from repro.store import Repository
from repro.weaksets import LockClient, install_lock_service

from helpers import CLIENT, PRIMARY, standard_world


def setup(lease=None, **kwargs):
    kernel, net, world, elements = standard_world(**kwargs)
    service = install_lock_service(world, PRIMARY, lease=lease)
    return kernel, net, world, service


def client(world, node):
    return LockClient(Repository(world, node), "coll")


def test_holders_and_grants_tracked():
    kernel, net, world, service = setup()
    a = client(world, CLIENT)
    b = client(world, "s2")

    def proc():
        yield from a.acquire("read")
        yield from b.acquire("read")
        holders_both = service.holders("coll")
        yield from a.release()
        holders_one = service.holders("coll")
        yield from b.release()
        return holders_both, holders_one

    both, one = kernel.run_process(proc())
    assert len(both) == 2
    assert len(one) == 1
    assert service.grants == 2
    assert service.holders("coll") == []


def test_writer_excludes_writer():
    kernel, net, world, service = setup()
    a = client(world, CLIENT)
    b = client(world, "s2")
    order = []

    def first():
        yield from a.acquire("write")
        order.append("a-acquired")
        yield Sleep(2.0)
        yield from a.release()
        order.append("a-released")

    def second():
        yield Sleep(0.1)
        yield from b.acquire("write")
        order.append("b-acquired")
        yield from b.release()

    kernel.spawn(first())
    kernel.spawn(second())
    kernel.run(until=30.0)
    assert order == ["a-acquired", "a-released", "b-acquired"]


def test_reader_blocks_writer_but_not_reader():
    kernel, net, world, service = setup()
    r1 = client(world, CLIENT)
    r2 = client(world, "s2")
    w = client(world, "s3")
    times = {}

    def reader(lock, name, hold):
        yield from lock.acquire("read")
        times[name] = world.now
        yield Sleep(hold)
        yield from lock.release()

    def writer():
        yield Sleep(0.1)
        yield from w.acquire("write")
        times["w"] = world.now
        yield from w.release()

    kernel.spawn(reader(r1, "r1", 3.0))
    kernel.spawn(reader(r2, "r2", 3.0))
    kernel.spawn(writer())
    kernel.run(until=30.0)
    assert times["r1"] < 0.5 and times["r2"] < 0.5   # readers share
    assert times["w"] > 3.0                          # writer waited


def test_max_wait_observed():
    kernel, net, world, service = setup()
    a = client(world, CLIENT)
    b = client(world, "s2")

    def holder():
        yield from a.acquire("write")
        yield Sleep(4.0)
        yield from a.release()

    def waiter():
        yield Sleep(0.1)
        yield from b.acquire("write")
        yield from b.release()

    kernel.spawn(holder())
    kernel.spawn(waiter())
    kernel.run(until=30.0)
    assert service.max_wait_observed >= 3.5


def test_release_without_holding_is_false():
    kernel, net, world, service = setup()

    def proc():
        released = yield from service.release("coll", "read", "nobody")
        unknown = yield from service.release("other-coll", "read", "nobody")
        return released, unknown

    assert kernel.run_process(proc()) == (False, False)


def test_release_is_mode_specific():
    kernel, net, world, service = setup()
    a = client(world, CLIENT)

    def proc():
        yield from a.acquire("read")
        # wrong-mode release does nothing
        wrong = yield from service.release("coll", "write", a.owner)
        right = yield from service.release("coll", "read", a.owner)
        return wrong, right

    assert kernel.run_process(proc()) == (False, True)


def test_lease_expires_writer_too():
    kernel, net, world, service = setup(lease=2.0)
    w = client(world, CLIENT)
    r = client(world, "s2")
    times = {}

    def writer_vanishes():
        yield from w.acquire("write")
        yield Sleep(100.0)       # never releases

    def reader():
        yield Sleep(0.1)
        yield from r.acquire("read")
        times["r"] = world.now

    kernel.spawn(writer_vanishes(), daemon=True)
    kernel.spawn(reader(), daemon=True)
    kernel.run(until=30.0)
    assert 2.0 <= times["r"] < 4.0


def test_zero_wait_timeout_fails_immediately_when_held():
    kernel, net, world, service = setup()
    a = client(world, CLIENT)
    b = client(world, "s2")

    def proc():
        yield from a.acquire("write")
        try:
            yield from b.acquire("write", wait_timeout=0.0)
        except (LockUnavailableFailure, TimeoutFailure):
            return "refused"

    assert kernel.run_process(proc()) == "refused"


# ---------------------------------------------------------------------------
# Collection-wide locks over sharded rings
# ---------------------------------------------------------------------------

def test_collection_locks_follow_ring_order():
    from repro.weaksets import (acquire_collection_locks,
                                install_lock_services,
                                release_collection_locks)
    from helpers import sharded_world

    kernel, net, world, _ = sharded_world()
    install_lock_services(world, "coll")
    repo = Repository(world, CLIENT)

    def proc():
        locks = yield from acquire_collection_locks(repo, "coll", "write")
        held_at = [lock._lock_node for lock in locks]
        yield from release_collection_locks(locks)
        return held_at

    held_at = kernel.run_process(proc())
    ring = world.collections["coll"].shard_map.ring
    assert tuple(held_at) == ring.ordered_nodes()   # deterministic order
    for node in ring.nodes:
        service = net.node(node).services["locks"]
        assert service.holders("coll") == []        # all released


def test_collection_locks_roll_back_on_failure():
    from repro.errors import FailureException
    from repro.weaksets import (acquire_collection_locks,
                                install_lock_services)
    from helpers import sharded_world

    kernel, net, world, _ = sharded_world()
    install_lock_services(world, "coll")
    repo = Repository(world, CLIENT)
    ring = world.collections["coll"].shard_map.ring
    last = ring.ordered_nodes()[-1]
    net.crash(last)                       # the final acquisition will fail

    def proc():
        try:
            yield from acquire_collection_locks(repo, "coll", "write",
                                                rpc_timeout=0.5)
        except FailureException:
            return "rolled-back"
        return "acquired"

    assert kernel.run_process(proc()) == "rolled-back"
    for node in ring.ordered_nodes()[:-1]:
        service = net.node(node).services["locks"]
        assert service.holders("coll") == []        # earlier locks released


def test_lock_owner_ids_are_minted_per_world():
    """Owners travel in every acquire/release payload: wire bytes must be
    a function of (code, seed), not of how many lock clients this
    process built before."""
    from repro.weaksets import StrongSet

    from helpers import drain_all

    def seeded_drain_bytes():
        kernel, net, world, _ = standard_world(members=8, with_locks=True,
                                               seed=3)
        drain_all(kernel, StrongSet(world, CLIENT, "coll"))
        return kernel.obs.metrics.value("net.bytes_sent")

    first = seeded_drain_bytes()
    _, _, other_world, _ = standard_world()
    repo = Repository(other_world, CLIENT)
    for _ in range(10 ** 5):
        LockClient(repo, "coll")
    assert seeded_drain_bytes() == first
