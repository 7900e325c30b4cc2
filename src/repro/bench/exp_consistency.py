"""E5 — the consistency cost of weakness, vs mutation rate.

Figure 4 "loses" mutations (misses additions made after the first
invocation, yields removed members); Figure 6 sees additions but may
still yield members that are deleted moments later.  Both costs scale
with the mutation rate — and vanish in the paper's target regime,
"loose collections of reference objects … rarely or never change".

Metrics per run (slow consumer, think time between invocations):

* **missed additions** — members added during the run's window but
  absent from the yield set at termination (and still members then);
* **stale yields** — yielded members that are no longer members when
  the run terminates;
* **cache-ablation** — the same query with a client cache and with
  bypass, showing TTL staleness on top of replica staleness.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..sim.events import Sleep
from ..store.cache import ClientCache
from ..wan.workload import Mutator, ScenarioSpec, build_scenario
from ..weaksets import DynamicSet, SnapshotSet
from .report import ExperimentResult

__all__ = ["run_staleness", "run_cache_ablation"]

_IMPLS = (
    ("fig4 snapshot", SnapshotSet),
    ("fig6 dynamic", DynamicSet),
)


def _one_run(cls, mutation_rate, seed, members=12, think=0.2):
    spec = ScenarioSpec(n_clusters=3, cluster_size=2, n_members=members)
    scenario = build_scenario(spec, seed=seed)
    mutator = Mutator(scenario, add_rate=mutation_rate / 2,
                      remove_rate=mutation_rate / 2)
    mutator.start()
    ws = cls(scenario.world, scenario.client, spec.coll_id, record=False)
    iterator = ws.elements()

    def proc():
        yields = []
        t_first = scenario.kernel.now
        while True:
            outcome = yield from iterator.invoke()
            if not outcome.suspends:
                break
            yields.append(outcome.element)
            yield Sleep(think)          # the slow (human) consumer
        return yields, t_first

    yields, t_first = scenario.kernel.run_process(proc())
    final_members = scenario.world.true_members(spec.coll_id)
    added_during = [e for e in mutator.added]
    missed = [e for e in added_during
              if e in final_members and e not in yields]
    stale = [e for e in yields if e not in final_members]
    return len(yields), len(missed), len(stale), len(added_during), len(mutator.removed)


def run_staleness(mutation_rates: Iterable[float] = (0.0, 0.5, 2.0, 8.0),
                  seeds: Sequence[int] = range(5)) -> ExperimentResult:
    """E5: missed additions and stale yields vs mutation rate."""
    result = ExperimentResult(
        "E5", "Consistency cost vs mutation rate (ops/s, slow consumer)",
        columns=["mutation_rate", "impl", "mean_yields", "missed_adds_per_run",
                 "stale_yields_per_run"],
        notes="fig4 misses additions (snapshot basis); fig6 sees them; both "
              "costs go to ~0 in the reference-object (rate->0) regime",
    )
    for mutation_rate in mutation_rates:
        for impl_name, cls in _IMPLS:
            yields_total, missed_total, stale_total = 0, 0, 0
            for seed in seeds:
                y, m, s, _, _ = _one_run(cls, mutation_rate, seed)
                yields_total += y
                missed_total += m
                stale_total += s
            result.add(
                mutation_rate=mutation_rate,
                impl=impl_name,
                mean_yields=yields_total / len(seeds),
                missed_adds_per_run=missed_total / len(seeds),
                stale_yields_per_run=stale_total / len(seeds),
            )
    return result


def run_cache_ablation(ttls: Iterable[float] = (0.0, 2.0, 10.0),
                       seed: int = 0) -> ExperimentResult:
    """E5 ablation: client-cache TTL vs fetch traffic and staleness.

    Reads a mutating collection twice in a row (the paper's repeated
    query); with a long TTL the second query is served from cache —
    cheap but stale.
    """
    result = ExperimentResult(
        "E5a", "Client-cache ablation (two back-to-back queries)",
        columns=["ttl", "second_query_time", "cache_hit_rate",
                 "second_query_stale_yields"],
        notes="longer TTLs cut latency and add staleness — the knob the "
              "paper's 'cached data may be stale' points at",
    )
    for ttl in ttls:
        spec = ScenarioSpec(n_clusters=3, cluster_size=2, n_members=10)
        scenario = build_scenario(spec, seed=seed)
        cache = ClientCache(ttl=ttl) if ttl > 0 else None
        ws = DynamicSet(scenario.world, scenario.client, spec.coll_id,
                        cache=cache, record=False, use_cache=cache is not None)

        def proc():
            first = yield from ws.elements().drain()
            # a mutation lands between the queries
            victim = first.elements[0]
            yield from ws.repo.remove(spec.coll_id, victim)
            t0 = scenario.kernel.now
            second = yield from ws.elements().drain()
            return victim, second, scenario.kernel.now - t0

        victim, second, elapsed = scenario.kernel.run_process(proc())
        final = scenario.world.true_members(spec.coll_id)
        stale = sum(1 for e in second.elements if e not in final)
        result.add(
            ttl=ttl,
            second_query_time=elapsed,
            cache_hit_rate=(cache.hit_rate if cache else 0.0),
            second_query_stale_yields=stale,
        )
    return result
