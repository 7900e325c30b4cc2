"""E20 — the batched, pipelined write path (window / batch / replica sweeps).

Bulk mutation now runs through :class:`~repro.store.writeplan.WritePipeline`:
same-destination puts coalesce into ``put_objects`` multi-puts with the
replica fan-out issued concurrently, and same-primary registrations
coalesce into group-committed ``add_members`` batches.  E20 measures
what that buys for bulk population on the WAN topology against the
serial seed path (``Repository.add`` in a loop — ``1 + replicas + 1``
round trips per element), and that it buys it without weakening
anything:

* every populated world is drained under Figure 4 (snapshot) and
  Figure 6 (dynamic) semantics and checked for conformance — batching
  must not let a member become visible before its copies exist;
* a crash is armed mid-``add_members`` batch (the ``"added"`` per-item
  crash point) on the primary: with the WAL on, recovery replays the
  group-committed intent item-precisely and the scrub daemon converges
  the cleanup-vs-rollforward race — **zero** invariant violations at
  quiescence; the WAL-off ablation must leak (dangling members), which
  proves the group-commit protocol, not luck, is doing the work.

Sweeps, all over the same seeded placements (``member_plan`` draws the
exact placement sequence God-mode seeding uses):

* **window sweep** — window ∈ {2, 4, 8} at ``batch=4``, 2 object
  replicas: concurrency of in-flight batches;
* **batch sweep** — batch ∈ {1, 4, 8} at ``window=4``: what
  destination coalescing and group commit add on top;
* **replica sweep** — 0/1/2 object replicas at ``window=4, batch=4``,
  each against its own serial baseline: the concurrent fan-out's share.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

from ..wan.workload import ScenarioSpec, build_scenario, member_plan
from ..weaksets import DynamicSet, SnapshotSet
from .harness import drain, heal_and_settle
from .report import ExperimentResult

__all__ = ["run_writepipe"]

#: settle budget for the crash legs (virtual seconds past recovery)
_SETTLE_BOUND = 40.0


def _build(replicas: int, seed: int, members: int, *,
           recovery: bool = True, rpc_timeout: float = 5.0):
    """An empty WAN world plus the member plan its spec describes."""
    spec = ScenarioSpec(n_clusters=4, cluster_size=3, n_members=members,
                        policy="any", object_replicas=replicas,
                        recovery_enabled=recovery, rpc_timeout=rpc_timeout)
    scenario = build_scenario(dataclasses.replace(spec, n_members=0),
                              seed=seed)
    return scenario, member_plan(spec, scenario.kernel)


def _populate_serial(scenario, plan):
    """The pre-pipeline write path: one element at a time, serial
    round trips for home, each replica, and the registration."""
    repo = scenario.repo()

    def proc():
        for s in plan:
            yield from repo.add(scenario.coll_id, s.name, s.value,
                                s.home, s.size, replicas=s.replicas)

    start = scenario.kernel.now
    scenario.kernel.run_process(proc())
    return scenario.kernel.now - start


def _populate_batched(scenario, plan, window: int, batch: int):
    repo = scenario.repo()
    start = scenario.kernel.now
    scenario.kernel.run_process(repo.add_many(
        scenario.coll_id, plan, window=window, batch_size=batch))
    return scenario.kernel.now - start


def _conformance(scenario):
    """Drain the populated world under fig4 and fig6 semantics."""
    violations = []
    for cls in (SnapshotSet, DynamicSet):
        ws = cls(scenario.world, scenario.client, scenario.coll_id)
        drain(scenario, ws.elements())
        violations.append(0 if ws.audit().conformant else 1)
    return violations


def _sweep_point(replicas: int, members: int, seeds: Sequence[int],
                 shape: Optional[tuple[int, int]] = None):
    """Averaged population cost + summed conformance checks at one
    pipeline ``shape`` (window, batch); ``None`` is the serial path."""
    total = 0.0
    bad4 = bad6 = 0
    for seed in seeds:
        scenario, plan = _build(replicas, seed, members)
        total += (_populate_serial(scenario, plan) if shape is None
                  else _populate_batched(scenario, plan, *shape))
        v4, v6 = _conformance(scenario)
        bad4 += v4
        bad6 += v6
    return total / len(seeds), bad4, bad6


def _crash_run(recovery: bool, seed: int, members: int) -> dict:
    """Populate with a crash armed mid-``add_members`` batch, recover,
    and judge quiescence."""
    scenario, plan = _build(2, seed, members, recovery=recovery,
                            rpc_timeout=1.0)
    primary = scenario.spec.primary
    scenario.world.server(primary).wal.arm_crash("added")
    repo = scenario.repo()
    added = scenario.kernel.run_process(repo.add_many(
        scenario.coll_id, plan, window=4, batch_size=4, on_failure="skip"))
    # Settle in scrub-round increments until clean (or give up): the
    # orphan-GC pass only collects past its grace period, and the
    # WAL-off ablation never converges at all.
    problems = heal_and_settle(scenario, bound=_SETTLE_BOUND, step=5.0)
    metrics = scenario.kernel.obs.metrics
    return {
        "acked": len(added),
        "violations": len(problems),
        "crashes": int(metrics.value("wal.crash_points")),
    }


def run_writepipe(members: int = 24,
                  seeds: Sequence[int] = range(2)) -> ExperimentResult:
    """E20: bulk-population cost vs pipeline shape, plus crash legs."""
    result = ExperimentResult(
        "E20", "Write pipeline: batched population vs serial (WAN), with "
               "mid-batch crash injection",
        columns=["mode", "window", "batch", "replicas", "wal", "total_time",
                 "speedup_vs_serial", "fig4_viol", "fig6_viol",
                 "recovery_viol", "crashes"],
        notes="serial = Repository.add in a loop (1 + replicas + 1 round "
              "trips per element); speedup compares equal replica counts "
              "on the same seeded placements; fig4/fig6 drains of every "
              "populated world must report 0 violations; crash legs arm a "
              "crash point inside an add_members group commit — wal=on "
              "must settle to 0 invariant violations, the wal=off "
              "ablation must leak",
    )
    # (mode, object replicas, pipeline shape); the serial rows come first:
    # each later point's speedup is against the serial cost at its replicas
    points = ([("serial", replicas, None) for replicas in (0, 1, 2)]
              + [("window-sweep", 2, (window, 4)) for window in (2, 4, 8)]
              + [("batch-sweep", 2, (4, batch)) for batch in (1, 4, 8)]
              + [("replica-sweep", replicas, (4, 4)) for replicas in (0, 1)])
    serial = {}
    for mode, replicas, shape in points:
        total, bad4, bad6 = _sweep_point(replicas, members, seeds, shape)
        if shape is None:
            serial[replicas] = total
        window, batch = shape or (1, 1)
        result.add(mode=mode, window=window, batch=batch, replicas=replicas,
                   wal=None, total_time=total,
                   speedup_vs_serial=serial[replicas] / total,
                   fig4_viol=bad4, fig6_viol=bad6, recovery_viol=None,
                   crashes=None)
    for recovery in (True, False):
        outcomes = [_crash_run(recovery, seed, members) for seed in seeds]
        result.add(mode="crash", window=4, batch=4, replicas=2,
                   wal="on" if recovery else "off", total_time=None,
                   speedup_vs_serial=None, fig4_viol=None, fig6_viol=None,
                   recovery_viol=sum(o["violations"] for o in outcomes),
                   crashes=sum(o["crashes"] for o in outcomes))
    result.metrics["batched_vs_serial_speedup"] = {
        f"window{r['window']}_batch{r['batch']}": r["speedup_vs_serial"]
        for r in result.rows if r["mode"] == "window-sweep"}
    return result
