"""E18 — crash-consistent recovery: invariant violations vs. crash rate.

The paper's specification is stated over a *quiescent* system: "an item
is in the weak set if it is in the set of items at the home node".  A
multi-step removal (delete the copies, delete the home object, pop the
membership) has windows where a crash leaves that statement false — a
*dangling member* with no live home object, or an *orphaned copy* no
collection lists.  E18 injects exactly those crashes (the fault
injector's ``wal_crash_rate`` arms a crash point on a primary's intent
log, fired mid-erase at the ``home-deleted`` step) and compares two
systems over the same seeded schedules:

* **wal=on** — every mutation is intent-logged; recovery replays pending
  intents on node restart and the scrub daemon retries blocked ones and
  heals what it finds.  The acceptance bar: **zero** invariant
  violations at quiescence, at every crash rate.
* **wal=off** — the ablation: same crash points, no log, no replay, no
  scrub.  Violations must appear as soon as crashes do, which is what
  proves the protocol (not luck) is doing the work.

Also reported: how many crash points actually fired, the recovery
effort (replays, intents replayed, mean replay latency in virtual
seconds), and the anti-entropy traffic (sync rounds and total transport
messages) — recovery and sync are real RPC users now, so their cost is
visible, not free.
"""

from __future__ import annotations

from typing import Iterable

from ..net.failures import FaultPlan
from ..wan.workload import Mutator, ScenarioSpec, build_scenario
from .harness import heal_and_settle
from .report import ExperimentResult

__all__ = ["run_recovery"]

#: virtual seconds of remove-heavy churn before the quiescence check
_RUN_FOR = 20.0
_SCRUB = 1.0


def one_run(crash_rate: float, recovery: bool, seed: int) -> dict:
    """One seeded churn run under mid-erase crash injection."""
    plan = None
    if crash_rate > 0:
        # half the crash points land at "begin" (nothing durable yet:
        # replay redoes every delete over RPC), half at "home-deleted"
        # (the dangerous window: only the membership pop remains)
        plan = FaultPlan(wal_crash_rate=crash_rate, mean_downtime=1.0,
                         wal_crash_steps=("begin", "home-deleted"),
                         protected=frozenset({"client"}))
    spec = ScenarioSpec(n_clusters=3, cluster_size=2, n_members=16,
                        policy="any", replicas=2, object_replicas=1,
                        fault_plan=plan, fail_fast=True, rpc_timeout=1.0,
                        recovery_enabled=recovery, scrub_interval=_SCRUB)
    scenario = build_scenario(spec, seed=seed)
    mutator = Mutator(scenario, remove_rate=1.0)
    mutator.start()
    scenario.kernel.run(until=_RUN_FOR)
    # one fixed stretch of scrub rounds, clean or not: the effort columns
    # below are read after it
    problems = heal_and_settle(scenario, bound=5 * _SCRUB, step=5 * _SCRUB)
    fired = sum(1 for (_, kind, _) in
                (scenario.injector.injected if scenario.injector else [])
                if kind == "wal-crash")
    metrics = scenario.kernel.obs.metrics
    latency = metrics.get("recovery.latency")
    return {
        "violations": len(problems),
        "crashes": fired,
        "removes": len(mutator.removed),
        "replays": metrics.value("recovery.replays"),
        "replayed": metrics.value("recovery.intents_replayed"),
        "replay_latency": (latency.mean if latency is not None
                           and latency.count else 0.0),
        "sync_rounds": metrics.value("sync.rounds"),
        "messages": metrics.value("net.messages_sent"),
    }


def run_recovery(rates: Iterable[float] = (0.0, 0.1, 0.2, 0.4),
                 runs_per_point: int = 4) -> ExperimentResult:
    """E18: sweep the mid-erase crash rate, with and without recovery."""
    result = ExperimentResult(
        "E18", "Crash-consistent recovery under mid-erase crash injection "
               "(per-primary crash-point rate, 1s mean downtime)",
        columns=["crash_rate", "wal", "violations", "crashes", "removes",
                 "replays", "replayed", "mean_replay_latency",
                 "sync_rounds", "messages"],
        notes="violations = invariant breaches at quiescence summed over "
              f"{runs_per_point} seeded runs; wal=on must stay at 0 at every "
              "rate while the wal=off ablation shows the exposure; "
              "replay latency is virtual seconds; sync_rounds/messages show "
              "that recovery and anti-entropy ride the real RPC fabric",
    )
    for crash_rate in rates:
        for recovery in (True, False):
            outcomes = [one_run(crash_rate, recovery, seed)
                        for seed in range(runs_per_point)]
            agg = {k: sum(o[k] for o in outcomes) for k in
                   ("violations", "crashes", "removes", "replays",
                    "replayed", "sync_rounds", "messages")}
            with_latency = [o["replay_latency"] for o in outcomes
                            if o["replay_latency"] > 0]
            result.add(
                crash_rate=crash_rate,
                wal="on" if recovery else "off",
                violations=agg["violations"],
                crashes=agg["crashes"],
                removes=agg["removes"],
                replays=agg["replays"],
                replayed=agg["replayed"],
                mean_replay_latency=(sum(with_latency) / len(with_latency)
                                     if with_latency else 0.0),
                sync_rounds=agg["sync_rounds"],
                messages=agg["messages"],
            )
    return result
