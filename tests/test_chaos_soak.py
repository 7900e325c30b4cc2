"""Seeded chaos soak: resilient iteration under a live FaultInjector.

Marked ``chaos`` so CI can select (``-m chaos``) or deselect
(``-m "not chaos"``) the soak explicitly; it also runs in the default
suite because every run is deterministic — the injector draws from the
kernel's seeded streams, so a failure here is a reproducible
counterexample, not flake.

Each soak drives a resilient :class:`DynamicSet` drain loop through a
world where nodes crash and recover continually, then asserts the two
properties resilience must preserve:

* soundness — every trace conforms to Figure 6 (which implies §3.4's
  weak guarantee: no yielded element that was never a member during the
  run's window), save the ``Failed`` that ends a round whose
  ``give_up_after`` budget ran out;
* determinism — the same seed produces byte-identical yield sequences
  and counter values on a second run.
"""

import pytest

from repro.net import BreakerPolicy, ResilientClient, RetryPolicy
from repro.net.failures import FaultPlan
from repro.spec import Returned, check_conformance, spec_by_id
from repro.wan import Mutator, ScenarioSpec, build_scenario
from repro.weaksets import DynamicSet

pytestmark = pytest.mark.chaos

SOAK_SEEDS = (0, 1, 2, 3, 4)


def soak_once(seed, rounds=3):
    """One seeded soak run; returns (yield-names per round, stats tuple)."""
    plan = FaultPlan(crash_rate=0.15, isolate_rate=0.05, mean_downtime=1.5,
                     protected=frozenset({"client"}))
    spec = ScenarioSpec(n_clusters=3, cluster_size=3, n_members=10,
                        policy="any", replicas=2, object_replicas=1,
                        fault_plan=plan, fail_fast=True, rpc_timeout=1.0)
    scenario = build_scenario(spec, seed=seed)
    mutator = Mutator(scenario, add_rate=0.3, remove_rate=0.3)
    mutator.start()
    resilience = ResilientClient(
        scenario.net,
        policy=RetryPolicy(max_attempts=3, base_delay=0.05, max_delay=0.4),
        breaker=BreakerPolicy(failure_threshold=4, cooldown=1.0),
        hedge_delay=0.15,
    )
    ws = DynamicSet(scenario.world, scenario.client, spec.coll_id,
                    resilience=resilience, rpc_timeout=spec.rpc_timeout,
                    retry_interval=0.25, give_up_after=3.0)
    rounds_out = []
    completions = 0
    for _ in range(rounds):
        iterator = ws.elements()

        def proc():
            return (yield from iterator.drain())

        drained = scenario.kernel.run_process(proc())
        completions += isinstance(drained.outcome, Returned)
        rounds_out.append(tuple(y.element.name for y in drained.yields))
    scenario.injector.stop()
    violations = []
    for trace in ws.traces:
        report = check_conformance(trace, spec_by_id("fig6"), scenario.world)
        gave_up = trace.invocations[-1].index if trace.failed else None
        violations += [str(v) for v in report.constraint_violations]
        violations += [str(v) for v in report.ensures_violations
                       if v.invocation != gave_up]
    counter = scenario.kernel.obs.metrics.value
    counters = tuple(counter(name) for name in (
        "rpc.retries", "rpc.hedges", "rpc.failovers", "rpc.breaker_trips",
        "rpc.breaker_fast_fails", "net.messages_sent", "net.messages_dropped"))
    return rounds_out, counters, violations, completions


@pytest.mark.parametrize("seed", SOAK_SEEDS)
def test_chaos_soak_is_sound(seed):
    rounds, counters, violations, _ = soak_once(seed)
    assert violations == []
    # every round yields each member at most once
    for names in rounds:
        assert len(names) == len(set(names))


def test_chaos_soak_recovers_work():
    # Across the seed set, chaos actually bites (faults get injected,
    # recovery machinery engages) and most drains still complete.
    total_completions = 0
    total_recovery = 0
    for seed in SOAK_SEEDS:
        _, counters, _, completions = soak_once(seed)
        total_completions += completions
        total_recovery += counters[0] + counters[2]   # retries + failovers
    assert total_recovery > 0
    assert total_completions >= (3 * len(SOAK_SEEDS)) // 2


@pytest.mark.parametrize("seed", (0, 3))
def test_chaos_soak_is_deterministic(seed):
    first = soak_once(seed)
    second = soak_once(seed)
    assert first[0] == second[0]          # identical yield sequences
    assert first[1] == second[1]          # identical counters
