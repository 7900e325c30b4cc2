"""Writer starvation and the writer-priority option."""


from repro.sim import Sleep
from repro.store import Repository
from repro.weaksets import LockClient, install_lock_services

from helpers import CLIENT, PRIMARY, standard_world


def reader_stream(kernel, world, nodes, hold=1.0, gap=0.5):
    """Overlapping readers forever: reader i+1 arrives before i leaves."""

    def one_reader(node, start):
        yield Sleep(start)
        lock = LockClient(Repository(world, node), "coll", PRIMARY)
        yield from lock.acquire("read")
        yield Sleep(hold)
        yield from lock.release()

    start = 0.0
    i = 0
    while start < 20.0:
        kernel.spawn(one_reader(nodes[i % len(nodes)], start), daemon=True)
        start += gap
        i += 1


def run_writer(kernel, world, arrived_at=1.25):
    times = {}

    def writer():
        yield Sleep(arrived_at)
        lock = LockClient(Repository(world, "s3"), "coll", PRIMARY)
        waited = yield from lock.acquire("write")
        times["granted"] = world.now
        times["waited"] = waited
        yield from lock.release()

    kernel.spawn(writer(), daemon=True)
    return times


def test_writer_starves_under_default_policy():
    kernel, net, world, _ = standard_world()
    install_lock_services(world, "coll")          # wake-all, no priority
    reader_stream(kernel, world, [CLIENT, "s1", "s2"])
    times = run_writer(kernel, world)
    kernel.run(until=19.0)
    # overlapping readers never leave a gap: the writer is still waiting
    assert "granted" not in times


def test_writer_priority_prevents_starvation():
    kernel, net, world, _ = standard_world()
    install_lock_services(world, "coll", writer_priority=True)
    reader_stream(kernel, world, [CLIENT, "s1", "s2"])
    times = run_writer(kernel, world)
    kernel.run(until=19.0)
    # new readers park behind the waiting writer; the in-flight readers
    # drain and the writer gets in promptly
    assert "granted" in times
    assert times["waited"] < 3.0


def test_writer_priority_still_allows_reader_concurrency():
    kernel, net, world, _ = standard_world()
    install_lock_services(world, "coll", writer_priority=True)
    grants = []

    def reader(node):
        lock = LockClient(Repository(world, node), "coll", PRIMARY)
        yield from lock.acquire("read")
        grants.append(world.now)
        yield Sleep(1.0)
        yield from lock.release()

    kernel.spawn(reader(CLIENT))
    kernel.spawn(reader("s2"))
    kernel.run(until=10.0)
    # with no writer waiting, both readers entered immediately
    assert len(grants) == 2
    assert all(t < 0.5 for t in grants)
