"""Fault injection: scheduled and stochastic failures.

Two styles, matching what the benchmarks need:

* :class:`FaultSchedule` — a deterministic script of (time, action)
  pairs, for tests and counterexample construction.
* :class:`FaultInjector` — a stochastic background process that crashes
  nodes, cuts links, and creates partitions at configured rates, with
  exponentially distributed repair times.  The paper's environment is
  one where "failures are assumed to be common"; the injector makes
  that a dial the availability experiments (E4) can sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator

from ..sim.events import Fork, Sleep
from .address import NodeId
from .fabric import Network

__all__ = ["FaultSchedule", "FaultPlan", "FaultInjector"]


@dataclass
class FaultSchedule:
    """A deterministic list of timed fault actions."""

    actions: list[tuple[float, Callable[[Network], None]]] = field(default_factory=list)

    def at(self, time: float, action: Callable[[Network], None]) -> "FaultSchedule":
        self.actions.append((time, action))
        return self

    def crash_at(self, time: float, node: NodeId) -> "FaultSchedule":
        return self.at(time, lambda net: net.crash(node))

    def recover_at(self, time: float, node: NodeId) -> "FaultSchedule":
        return self.at(time, lambda net: net.recover(node))

    def isolate_at(self, time: float, node: NodeId) -> "FaultSchedule":
        return self.at(time, lambda net: net.isolate(node))

    def rejoin_at(self, time: float, node: NodeId) -> "FaultSchedule":
        return self.at(time, lambda net: net.rejoin(node))

    def run(self, net: Network) -> Generator:
        """Simulated process executing the schedule (spawn as daemon)."""
        last = 0.0
        for time, action in sorted(self.actions, key=lambda pair: pair[0]):
            if time > last:
                yield Sleep(time - last)
                last = time
            action(net)


@dataclass(frozen=True)
class FaultPlan:
    """Rates for stochastic fault injection (all events per second).

    ``crash_rate`` / ``isolate_rate`` / ``link_cut_rate`` are per-node
    (or per-link) hazard rates; ``mean_downtime`` is the expected repair
    time.  A plan with all rates zero injects nothing.
    """

    crash_rate: float = 0.0
    isolate_rate: float = 0.0
    link_cut_rate: float = 0.0
    mean_downtime: float = 1.0
    protected: frozenset[NodeId] = frozenset()
    #: rate of *crash-mid-operation* injections: arm a one-shot crash
    #: point at a named WAL step on a node hosting a primary, so the
    #: node crashes exactly when its next multi-step mutation reaches
    #: that step (the crash window wall-clock injection can only graze).
    wal_crash_rate: float = 0.0
    wal_crash_steps: tuple[str, ...] = ("home-deleted",)
    #: rate of *correlated* partitions, per group: one of ``dc_groups``
    #: (e.g. a whole datacenter) splits off together — intra-group
    #: connectivity survives, everything across the cut does not — and
    #: heals after an exponential downtime.  Groups containing a
    #: protected node are never picked.
    dc_partition_rate: float = 0.0
    dc_groups: tuple[tuple[NodeId, ...], ...] = ()

    def total_rate(self, n_nodes: int, n_links: int) -> float:
        return (self.crash_rate * n_nodes
                + self.isolate_rate * n_nodes
                + self.wal_crash_rate * n_nodes
                + self.dc_partition_rate * len(self.dc_groups)
                + self.link_cut_rate * n_links)


class FaultInjector:
    """Background process injecting faults per a :class:`FaultPlan`."""

    def __init__(self, net: Network, plan: FaultPlan, stream_name: str = "faults"):
        self.net = net
        self.plan = plan
        self.stream = net.kernel.stream(stream_name)
        self.injected: list[tuple[float, str, str]] = []  # (time, kind, target)

    def start(self):
        """Spawn the injector; returns its process (kill it to stop)."""
        self._proc = self.net.kernel.spawn(self.run(), name="fault-injector", daemon=True)
        return self._proc

    def stop(self) -> None:
        """Stop injecting new faults (in-flight repairs still complete)."""
        proc = getattr(self, "_proc", None)
        if proc is not None:
            self.net.kernel.kill(proc)

    def _victims(self) -> list[NodeId]:
        return [n for n in sorted(self.net.nodes) if n not in self.plan.protected]

    def run(self) -> Generator:
        while True:
            # Re-read nodes *and* links every iteration: targets added
            # after the injector started are eligible (and the total
            # hazard rate tracks the current topology).
            nodes = self._victims()
            links = self.net.topology.links()
            total = self.plan.total_rate(len(nodes), len(links))
            if total <= 0:
                return
            yield Sleep(self.stream.exponential(1.0 / total))
            # Pick the fault kind proportionally to its share of the rate.
            r = self.stream.random() * total
            crash_share = self.plan.crash_rate * len(nodes)
            isolate_share = self.plan.isolate_rate * len(nodes)
            wal_share = self.plan.wal_crash_rate * len(nodes)
            dc_share = self.plan.dc_partition_rate * len(self.plan.dc_groups)
            if r < crash_share:
                node = self.stream.choice(nodes)
                if self.net.node(node).up:
                    yield Fork(self._crash_then_recover(node), "", True)
            elif r < crash_share + isolate_share:
                node = self.stream.choice(nodes)
                yield Fork(self._isolate_then_rejoin(node), "", True)
            elif r < crash_share + isolate_share + wal_share:
                candidates = self._wal_victims(nodes)
                if candidates:
                    node = self.stream.choice(candidates)
                    step = self.stream.choice(list(self.plan.wal_crash_steps))
                    self._arm_wal_crash(node, step)
            elif r < crash_share + isolate_share + wal_share + dc_share:
                groups = [g for g in self.plan.dc_groups
                          if not set(g) & self.plan.protected]
                if groups:
                    group = self.stream.choice(groups)
                    yield Fork(self._partition_then_heal(group), "", True)
            elif links:
                link = self.stream.choice(links)
                if link.up:
                    yield Fork(self._cut_then_restore(link.a, link.b), "", True)

    def _wal_victims(self, nodes: list[NodeId]) -> list[NodeId]:
        """Victims where a crash point can actually bite: nodes whose
        store service intent-logs multi-step mutations (i.e. hosts a
        primary collection)."""
        out = []
        for node in nodes:
            service = self.net.node(node).services.get("store")
            wal = getattr(service, "wal", None)
            collections = getattr(service, "collections", {})
            if wal is not None and any(
                    state.is_primary for state in collections.values()):
                out.append(node)
        return out

    def _arm_wal_crash(self, node: NodeId, step: str) -> None:
        service = self.net.node(node).services.get("store")

        def fire() -> None:
            if not self.net.node(node).up:
                return
            self.injected.append((self.net.now, "wal-crash", f"{node}@{step}"))
            self.net.crash(node)
            self.net.kernel.spawn(
                self._recover_later(node), name=f"wal-recover:{node}", daemon=True
            )

        service.wal.arm_crash(step, fire)
        self.injected.append((self.net.now, "wal-arm", f"{node}@{step}"))

    def _recover_later(self, node: NodeId) -> Generator:
        yield Sleep(self._downtime())
        if not self.net.node(node).up:
            self.net.recover(node)

    def _downtime(self) -> float:
        return self.stream.exponential(self.plan.mean_downtime)

    def _crash_then_recover(self, node: NodeId) -> Generator:
        self.injected.append((self.net.now, "crash", node))
        self.net.crash(node)
        yield Sleep(self._downtime())
        self.net.recover(node)

    def _isolate_then_rejoin(self, node: NodeId) -> Generator:
        self.injected.append((self.net.now, "isolate", node))
        self.net.isolate(node)
        yield Sleep(self._downtime())
        self.net.rejoin(node)

    def _partition_then_heal(self, group: tuple[NodeId, ...]) -> Generator:
        self.injected.append((self.net.now, "dc-partition", ",".join(group)))
        self.net.isolate_group(group)
        yield Sleep(self._downtime())
        self.net.rejoin_group(group)

    def _cut_then_restore(self, a: NodeId, b: NodeId) -> Generator:
        self.injected.append((self.net.now, "cut", f"{a}<->{b}"))
        self.net.cut_link(a, b)
        yield Sleep(self._downtime())
        self.net.restore_link(a, b)
