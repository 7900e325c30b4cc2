"""E16 — what client-side resilience buys under crash faults.

The paper assumes an environment where "failures are assumed to be
common" and leaves recovery to the client: Figure 6's optimistic
iterator simply waits for repairs.  E16 measures how much of that
waiting a resilient RPC layer (retries + deadlines + circuit breakers +
replica failover + hedging; :mod:`repro.net.resilience`) converts into
completed iterations — without ever weakening the semantics the spec
checker enforces.

We sweep a per-node crash rate and compare three client stacks over the
same seeded worlds:

* **no-retry** — the bare transport; a crashed home blocks the iterator
  until the fault injector repairs the node or ``give_up_after`` fires;
* **retry+failover** — transport failures are retried with backoff and
  element fetches fail over to object replicas;
* **retry+hedge+breaker** — additionally hedges membership reads and
  sheds load to crashed nodes via per-destination circuit breakers.

Reported per point: completion rate (drains that Returned), coverage
(fraction of members yielded), the Figure 6 audit of every drain (must
stay clean — resilience may never invent elements; the ``Failed`` that
ends a drain at its ``give_up_after`` budget is excused), and the
recovery-effort ``rpc.*`` counters from the kernel's metrics registry.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

from ..net.fabric import Network
from ..net.failures import FaultPlan
from ..net.resilience import BreakerPolicy, ResilientClient, RetryPolicy
from ..spec import Returned
from ..wan.workload import Mutator, Scenario, ScenarioSpec, build_scenario
from ..weaksets import DynamicSet
from .harness import drain
from .metrics import rate
from .report import ExperimentResult

__all__ = ["VARIANTS", "crash_world", "resilient_set", "run_resilience"]

#: builds a variant's client stack over a network (None: bare transport)
MakeClient = Callable[[Network], Optional[ResilientClient]]

_RETRY = RetryPolicy(max_attempts=4, base_delay=0.05, max_delay=0.5)


def _bare(net: Network) -> Optional[ResilientClient]:
    return None


def _retrying(net: Network) -> Optional[ResilientClient]:
    return ResilientClient(net, policy=_RETRY)


def _full(net: Network) -> Optional[ResilientClient]:
    return ResilientClient(net, policy=_RETRY,
                           breaker=BreakerPolicy(failure_threshold=3,
                                                 cooldown=1.0),
                           hedge_delay=0.1)


#: (variant name, ResilientClient factory, iterator failover flag)
VARIANTS: tuple[tuple[str, MakeClient, bool], ...] = (
    ("no-retry", _bare, False),
    ("retry+failover", _retrying, True),
    ("retry+hedge+breaker", _full, True),
)


def crash_world(crash_rate: float, members: int) -> ScenarioSpec:
    """The E16/E17 world: replicated members on heavy-tailed links, every
    node but the client crashing at ``crash_rate``."""
    plan = None
    if crash_rate > 0:
        plan = FaultPlan(crash_rate=crash_rate, mean_downtime=2.0,
                         protected=frozenset({"client"}))
    return ScenarioSpec(n_clusters=3, cluster_size=3, n_members=members,
                        policy="any", replicas=2, object_replicas=1,
                        heavy_tail=True, fault_plan=plan, fail_fast=True,
                        rpc_timeout=1.0)


def resilient_set(scenario: Scenario, make_resilience: MakeClient,
                  failover: bool) -> DynamicSet:
    """A fig6 set on ``scenario`` behind one of the :data:`VARIANTS`."""
    return DynamicSet(scenario.world, scenario.client, scenario.coll_id,
                      resilience=make_resilience(scenario.net),
                      rpc_timeout=scenario.spec.rpc_timeout,
                      retry_interval=0.25, give_up_after=3.0,
                      failover=failover)


def one_run(make_resilience: MakeClient, failover: bool, crash_rate: float,
            seed: int, members: int = 12) -> dict:
    """One seeded drain; returns outcome + counters for one variant."""
    scenario = build_scenario(crash_world(crash_rate, members), seed=seed)
    # Background churn makes conformance non-trivial: stale views now
    # list removed members, which failover must not resurrect.
    mutator = Mutator(scenario, add_rate=0.2, remove_rate=0.3)
    mutator.start()
    ws = resilient_set(scenario, make_resilience, failover)
    drained = drain(scenario, ws.elements())
    # The Figure 6 audit is the safety bar resilience must clear; it
    # implies §3.4's weak guarantee (every yielded element was a member
    # at some state inside the run's window).  Figure 6 never ends
    # Failed, but give_up_after exists precisely to bound bench runs, so
    # the Failed that ends a blocked drain reports as incomplete, not as
    # unsound.
    report = ws.audit()
    trace = ws.last_trace
    gave_up = trace.invocations[-1].index if trace.failed else None
    sound = (not report.constraint_violations
             and all(v.invocation == gave_up for v in report.ensures_violations))
    counter = scenario.kernel.obs.metrics.value
    return {
        "success": isinstance(drained.outcome, Returned),
        "coverage": len(drained.yields) / members,
        "latency": drained.total_time,
        "sound": sound,
        "retries": counter("rpc.retries"),
        "hedges": counter("rpc.hedges"),
        "failovers": counter("rpc.failovers"),
        "breaker_trips": counter("rpc.breaker_trips"),
    }


def run_resilience(rates: Iterable[float] = (0.0, 0.05, 0.1, 0.2),
                   seeds: Sequence[int] = range(8)) -> ExperimentResult:
    """E16: sweep the crash rate; compare the three client stacks."""
    result = ExperimentResult(
        "E16", "Resilient RPC under crash faults "
               "(per-node crash rate, 2s mean downtime)",
        columns=["crash_rate", "variant", "completion_rate", "mean_coverage",
                 "spec_ok", "retries", "hedges", "failovers", "breaker_trips"],
        notes="resilience converts blocked/abandoned drains into completed "
              "ones; spec_ok must stay yes everywhere — recovery may reorder "
              "work but never invent or resurrect elements",
    )
    for crash_rate in rates:
        for name, make, failover in VARIANTS:
            outcomes = [one_run(make, failover, crash_rate, seed)
                        for seed in seeds]
            result.add(
                crash_rate=crash_rate,
                variant=name,
                completion_rate=rate(sum(o["success"] for o in outcomes),
                                     len(seeds)),
                mean_coverage=(sum(o["coverage"] for o in outcomes)
                               / len(seeds)),
                spec_ok=all(o["sound"] for o in outcomes),
                retries=sum(o["retries"] for o in outcomes),
                hedges=sum(o["hedges"] for o in outcomes),
                failovers=sum(o["failovers"] for o in outcomes),
                breaker_trips=sum(o["breaker_trips"] for o in outcomes),
            )
    return result
