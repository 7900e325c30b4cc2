"""Tests for partitions, fault injection, and the failure detector."""

import pytest

from repro.errors import SimulationError
from repro.net import (
    FailureDetector,
    FaultInjector,
    FaultPlan,
    FaultSchedule,
    FixedLatency,
    Network,
    PartitionManager,
    full_mesh,
)
from repro.sim import Kernel, Sleep


# ---------------------------------------------------------------------------
# PartitionManager
# ---------------------------------------------------------------------------

def test_initially_one_partition():
    pm = PartitionManager(["a", "b", "c"])
    assert pm.same_partition("a", "b")
    assert not pm.is_partitioned()


def test_split_and_heal():
    pm = PartitionManager(["a", "b", "c", "d"])
    pm.split(["a", "b"], ["c"])
    assert pm.same_partition("a", "b")
    assert not pm.same_partition("a", "c")
    assert not pm.same_partition("a", "d")  # d stayed in main group
    assert not pm.same_partition("c", "d")
    assert pm.is_partitioned()
    pm.heal()
    assert pm.same_partition("a", "c")
    assert not pm.is_partitioned()


def test_isolate_and_rejoin():
    pm = PartitionManager(["a", "b"])
    pm.isolate("a")
    assert not pm.same_partition("a", "b")
    pm.rejoin("a")
    assert pm.same_partition("a", "b")


def test_overlapping_split_rejected():
    pm = PartitionManager(["a", "b"])
    with pytest.raises(SimulationError):
        pm.split(["a"], ["a", "b"])


def test_unknown_node_rejected():
    pm = PartitionManager(["a"])
    with pytest.raises(SimulationError):
        pm.split(["zzz"])
    with pytest.raises(SimulationError):
        pm.group_of("zzz")


def test_version_bumps_on_change():
    pm = PartitionManager(["a", "b"])
    v0 = pm.version
    pm.isolate("a")
    assert pm.version > v0


# ---------------------------------------------------------------------------
# FaultSchedule
# ---------------------------------------------------------------------------

def test_fault_schedule_executes_in_order():
    kernel = Kernel()
    net = Network(kernel, full_mesh(["a", "b"], FixedLatency(0.01)))
    sched = (FaultSchedule()
             .crash_at(1.0, "b")
             .recover_at(2.0, "b")
             .isolate_at(3.0, "a")
             .rejoin_at(4.0, "a"))
    observations = []

    def observer():
        for t in [0.5, 1.5, 2.5, 3.5, 4.5]:
            yield Sleep(t - kernel.now)
            observations.append((t, net.node("b").up, net.partitions.same_partition("a", "b")))

    kernel.spawn(sched.run(net), daemon=True)
    kernel.spawn(observer())
    kernel.run()
    assert observations == [
        (0.5, True, True),
        (1.5, False, True),
        (2.5, True, True),
        (3.5, True, False),
        (4.5, True, True),
    ]


def test_fault_schedule_link_actions():
    kernel = Kernel()
    net = Network(kernel, full_mesh(["a", "b"], FixedLatency(0.01)))
    sched = (FaultSchedule()
             .at(1.0, lambda net: net.cut_link("a", "b"))
             .at(2.0, lambda net: net.restore_link("a", "b")))
    kernel.spawn(sched.run(net), daemon=True)
    kernel.run(until=1.5)
    assert not net.can_reach("a", "b")
    kernel.run()
    assert net.can_reach("a", "b")


# ---------------------------------------------------------------------------
# FaultInjector
# ---------------------------------------------------------------------------

def test_injector_with_zero_rates_is_silent():
    kernel = Kernel(seed=1)
    net = Network(kernel, full_mesh(["a", "b"], FixedLatency(0.01)))
    injector = FaultInjector(net, FaultPlan())
    injector.start()
    kernel.run(until=100.0)
    assert injector.injected == []


def test_injector_crashes_and_recovers_nodes():
    kernel = Kernel(seed=7)
    net = Network(kernel, full_mesh([f"n{i}" for i in range(5)], FixedLatency(0.01)))
    plan = FaultPlan(crash_rate=0.2, mean_downtime=0.5)
    injector = FaultInjector(net, plan)
    injector.start()
    kernel.run(until=60.0)
    kinds = {kind for (_, kind, _) in injector.injected}
    assert kinds == {"crash"}
    assert len(injector.injected) > 5
    # stop injecting; all pending downtimes elapse and everyone recovers
    injector.stop()
    kernel.run(until=200.0)
    assert all(net.node(n).up for n in net.nodes)


def test_injector_respects_protected_nodes():
    kernel = Kernel(seed=3)
    nodes = [f"n{i}" for i in range(4)]
    net = Network(kernel, full_mesh(nodes, FixedLatency(0.01)))
    plan = FaultPlan(crash_rate=0.5, isolate_rate=0.5, mean_downtime=0.2,
                     protected=frozenset({"n0"}))
    FaultInjector(net, plan).start()
    kernel.run(until=30.0)
    assert net.node("n0").up
    targets = {target for (_, kind, target) in
               FaultInjector(net, plan).injected}  # fresh injector: empty
    assert "n0" not in targets


def test_injector_is_deterministic_per_seed():
    def run(seed):
        kernel = Kernel(seed=seed)
        net = Network(kernel, full_mesh([f"n{i}" for i in range(4)], FixedLatency(0.01)))
        injector = FaultInjector(net, FaultPlan(crash_rate=0.3, link_cut_rate=0.1,
                                                mean_downtime=0.5))
        injector.start()
        kernel.run(until=30.0)
        return injector.injected

    assert run(5) == run(5)
    assert run(5) != run(6)


def test_injector_targets_nodes_added_after_start():
    """The victim list is re-read every iteration, so topology growth
    after ``start()`` is visible to the injector."""
    kernel = Kernel(seed=11)
    net = Network(kernel, full_mesh(["a", "b"], FixedLatency(0.01)))
    plan = FaultPlan(crash_rate=2.0, mean_downtime=0.1,
                     protected=frozenset({"a"}))
    injector = FaultInjector(net, plan)
    injector.start()
    kernel.run(until=5.0)
    assert {t for (_, _, t) in injector.injected} == {"b"}

    # grow the cluster mid-run: wire a node the way Network.__init__ does
    from repro.net.node import Node
    net.topology.add_node("late")
    net.topology.add_link("a", "late", FixedLatency(0.01))
    net.nodes["late"] = Node("late", kernel)
    net.partitions.register("late")

    kernel.run(until=30.0)
    targets = {t for (_, _, t) in injector.injected}
    assert "late" in targets                 # the new node gets hurt too
    assert "a" not in targets
    injector.stop()
    kernel.run(until=60.0)
    assert all(net.node(n).up for n in net.nodes)


def test_injector_arms_wal_crash_points():
    """wal_crash_rate arms a crash point on a primary's intent log; the
    next logged erase fires it, and the node auto-recovers."""
    import sys
    sys.path.insert(0, "tests")  # reuse the store-world fixture
    from helpers import CLIENT, PRIMARY, standard_world
    from repro.errors import FailureException
    from repro.store import Repository

    kernel, net, world, elements = standard_world(members=4)
    plan = FaultPlan(wal_crash_rate=1.0, mean_downtime=1.0,
                     protected=frozenset({CLIENT}))
    injector = FaultInjector(net, plan)
    injector._arm_wal_crash(PRIMARY, "home-deleted")   # deterministic arm
    assert world.server(PRIMARY).wal.armed() == ["home-deleted"]
    repo = Repository(world, CLIENT)

    def proc():
        try:
            yield from repo.remove("coll", elements[0])
            return "removed"
        except FailureException:
            return "crashed"

    assert kernel.run_process(proc()) == "crashed"
    # by the time the client's timeout fired, the injector's downtime
    # (1.0s) already elapsed and the node auto-recovered
    kinds = [(kind, target) for (_, kind, target) in injector.injected]
    assert ("wal-crash", f"{PRIMARY}@home-deleted") in kinds
    kernel.run(until=kernel.now + 30.0)
    assert net.node(PRIMARY).up                       # injector recovered it
    kernel.run(until=kernel.now + 10.0)               # replay + scrub settle
    assert world.check_invariants() == []
    assert elements[0] not in world.true_members("coll")


def test_injector_wal_victims_are_store_primaries():
    import sys
    sys.path.insert(0, "tests")
    from helpers import CLIENT, PRIMARY, standard_world

    kernel, net, world, _ = standard_world(members=2, replicas=1)
    plan = FaultPlan(wal_crash_rate=1.0, protected=frozenset({CLIENT}))
    injector = FaultInjector(net, plan)
    victims = injector._wal_victims(injector._victims())
    assert victims == [PRIMARY]              # replicas and clients excluded


def test_injector_seeded_wal_crashes_fire_end_to_end():
    import sys
    sys.path.insert(0, "tests")
    from helpers import CLIENT, standard_world
    from repro.errors import FailureException
    from repro.store import Repository

    kernel, net, world, elements = standard_world(members=6, seed=13)
    plan = FaultPlan(wal_crash_rate=5.0, mean_downtime=0.5,
                     protected=frozenset({CLIENT}))
    injector = FaultInjector(net, plan)
    injector.start()
    repo = Repository(world, CLIENT)

    def proc():
        outcomes = []
        for e in elements:
            try:
                yield from repo.remove("coll", e)
                outcomes.append("ok")
            except FailureException:
                outcomes.append("failed")
            yield Sleep(0.5)
        return outcomes

    outcomes = kernel.run_process(proc())
    injector.stop()
    fired = [entry for entry in injector.injected if entry[1] == "wal-crash"]
    assert fired                             # at least one crash point fired
    assert "failed" in outcomes
    kernel.run(until=kernel.now + 30.0)      # recoveries + scrub settle
    assert all(net.node(n).up for n in net.nodes)
    assert world.check_invariants() == []


# ---------------------------------------------------------------------------
# FailureDetector
# ---------------------------------------------------------------------------

def test_failure_detector_suspects_crashed_node_and_forgives():
    kernel = Kernel(seed=0)
    nodes = ["home", "s1", "s2"]
    net = Network(kernel, full_mesh(nodes, FixedLatency(0.01)))
    FailureDetector.install_ping(net, ["s1", "s2"])
    fd = FailureDetector(net, "home", ["s1", "s2"],
                         period=0.2, suspect_after=0.6, rpc_timeout=0.1)
    fd.start()
    kernel.run(until=1.0)
    assert fd.suspected() == set()

    net.crash("s1")
    kernel.run(until=3.0)
    assert fd.is_suspected("s1")
    assert not fd.is_suspected("s2")

    net.recover("s1")
    kernel.run(until=6.0)
    assert not fd.is_suspected("s1")
    # transitions recorded: suspect then trust
    assert [(n, s) for (_, n, s) in fd.transitions] == [("s1", True), ("s1", False)]


def test_failure_detector_suspects_partitioned_node():
    kernel = Kernel(seed=0)
    net = Network(kernel, full_mesh(["home", "s1"], FixedLatency(0.01)))
    FailureDetector.install_ping(net, ["s1"])
    fd = FailureDetector(net, "home", ["s1"], period=0.2, suspect_after=0.6,
                         rpc_timeout=0.1)
    fd.start()
    net.isolate("s1")
    kernel.run(until=2.0)
    assert fd.is_suspected("s1")
