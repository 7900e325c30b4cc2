"""E4 — availability under partitions: pessimistic vs optimistic vs strong.

"The appropriate choice depends on the number of failures, and the
tradeoff between high availability and consistency of the data."

We sweep a per-node isolation rate (mobile nodes dropping off and
rejoining, exponential downtimes) and measure, per semantics:

* **success rate** — runs that terminated without the failure exception;
* **coverage** — fraction of the initial membership yielded;
* **mean latency** of successful runs (optimism trades waiting for
  completeness, so its latency grows where pessimism's success drops).

The expected shape: optimistic ≥ pessimistic ≥ strong in success at
every rate, with the gap widening as failures become common.
"""

from __future__ import annotations

from typing import Iterable

from ..net.failures import FaultPlan
from ..spec import Returned
from ..wan.workload import ScenarioSpec, build_scenario
from ..weaksets import DynamicSet, GrowOnlySet, StrongSet, install_lock_services
from .harness import drain, mean_or_nan
from .metrics import rate
from .report import ExperimentResult

__all__ = ["run_availability"]

_IMPLS = (
    ("strong", StrongSet, {"lock_wait_timeout": 10.0}),
    ("fig5 pessimistic", GrowOnlySet, {}),
    ("fig6 optimistic", DynamicSet, {"retry_interval": 0.25}),
)


def _one_run(cls, kwargs, isolate_rate, seed, members=12,
             fail_fast=True, replicas=0):
    policy = cls.expected_policy
    plan = FaultPlan(
        isolate_rate=isolate_rate,
        mean_downtime=1.0,
        protected=frozenset({"client", "n0.0"}),  # the client and primary stay up
    )
    spec = ScenarioSpec(n_clusters=3, cluster_size=3, n_members=members,
                        policy=policy, fault_plan=plan, fail_fast=fail_fast,
                        replicas=replicas, rpc_timeout=2.0)
    scenario = build_scenario(spec, seed=seed)
    install_lock_services(scenario.world, spec.coll_id)
    ws = cls(scenario.world, scenario.client, spec.coll_id,
             record=False, **kwargs)
    drained = drain(scenario, ws.elements())
    success = isinstance(drained.outcome, Returned)
    coverage = len(drained.yields) / members
    return success, coverage, drained.total_time


def _point(cls, kwargs, isolate_rate, runs_per_point, **world) -> dict:
    """One table point: ``cls`` at ``isolate_rate`` over the seeds."""
    successes, coverages, latencies_ok = 0, [], []
    for seed in range(runs_per_point):
        success, coverage, latency = _one_run(cls, kwargs, isolate_rate, seed,
                                              **world)
        if success:
            successes += 1
            latencies_ok.append(latency)
        coverages.append(coverage)
    return {"success_rate": rate(successes, runs_per_point),
            "mean_coverage": sum(coverages) / len(coverages),
            "mean_latency_ok": mean_or_nan(latencies_ok)}


def run_availability_ablation(isolate_rate: float = 0.1,
                              runs_per_point: int = 10) -> ExperimentResult:
    """E4a: two ablations at a fixed failure rate.

    * **quorum reads** (§3.3's aside): replicated membership + majority
      reads let the pessimistic iterator tolerate primary loss and
      lagging replicas — here the primary is protected, so the visible
      effect is cost (extra reads) for equal availability;
    * **failure detection**: with ``fail_fast`` off, every failure is
      discovered by burning the full RPC timeout — same verdicts, far
      higher latency.  "We assume we can detect failures … signaled
      from the lower network and transport layers"; this is what that
      assumption is worth.
    """
    from ..weaksets import QuorumGrowOnlySet

    variants = (
        ("fig5 primary-read (fail-fast)", GrowOnlySet, {}, True, 0),
        ("fig5 quorum-read (fail-fast)", QuorumGrowOnlySet, {}, True, 2),
        ("fig5 primary-read (timeout-only)", GrowOnlySet, {}, False, 0),
        ("fig6 optimistic (fail-fast)", DynamicSet,
         {"retry_interval": 0.25}, True, 0),
        ("fig6 optimistic (timeout-only)", DynamicSet,
         {"retry_interval": 0.25}, False, 0),
    )
    result = ExperimentResult(
        "E4a", f"Ablations at isolate_rate={isolate_rate} "
               "(quorum reads; transport failure detection)",
        columns=["variant", "success_rate", "mean_coverage", "mean_latency_ok"],
        notes="quorum reads trade read cost for availability; timeout-only "
              "discovery is slower per attempt — which accidentally waits "
              "out transient failures (slow pessimism drifts optimistic)",
    )
    for name, cls, kwargs, fail_fast, replicas in variants:
        result.add(variant=name,
                   **_point(cls, kwargs, isolate_rate, runs_per_point,
                            fail_fast=fail_fast, replicas=replicas))
    return result


def run_availability(rates: Iterable[float] = (0.0, 0.02, 0.05, 0.1, 0.2),
                     runs_per_point: int = 10) -> ExperimentResult:
    """E4: sweep the isolation rate; report success/coverage/latency."""
    result = ExperimentResult(
        "E4", "Availability under partitions "
              "(per-node isolation rate, 1s mean downtime)",
        columns=["isolate_rate", "impl", "success_rate", "mean_coverage",
                 "mean_latency_ok"],
        notes="optimistic >= pessimistic >= strong at every rate "
              "(optimistic trades waiting time for completeness)",
    )
    for isolate_rate in rates:
        for impl_name, cls, kwargs in _IMPLS:
            result.add(isolate_rate=isolate_rate, impl=impl_name,
                       **_point(cls, kwargs, isolate_rate, runs_per_point))
    return result
