"""E14 — the run-it-again idiom, quantified.

"If clients were concerned about these possible losses, after the
iterator terminates (returns), they can run the iterator again and hope
to catch discrepancies."  (§3.2)

How many re-runs does agreement take, and when is it hopeless?  We
sweep the mutation rate and report rounds-to-stable for the dynamic
iterator, plus how often the budget runs out with the answers still
moving — the quantitative version of "hope".
"""

from __future__ import annotations

from typing import Iterable

from ..wan.workload import Mutator, ScenarioSpec, build_scenario
from ..weaksets import DynamicSet, iterate_until_stable
from .harness import mean_or_nan
from .metrics import rate
from .report import ExperimentResult

__all__ = ["run_convergence"]


def run_convergence(mutation_rates: Iterable[float] = (0.0, 0.2, 1.0, 4.0),
                    runs_per_point: int = 8,
                    max_rounds: int = 6) -> ExperimentResult:
    """E14: rounds until two consecutive answers agree, vs churn."""
    result = ExperimentResult(
        "E14", "Re-run-until-agreement (§3.2) vs mutation rate",
        columns=["mutation_rate", "stable_rate", "mean_rounds_when_stable",
                 "mean_final_discrepancy"],
        notes="quiescent sets stabilize in 2 rounds; under churn the "
              "budget runs out with answers still moving — re-running "
              "is 'hope', not a guarantee",
    )
    for mutation_rate in mutation_rates:
        stable_counts = []
        rounds_when_stable = []
        final_discrepancies = []
        for seed in range(runs_per_point):
            spec = ScenarioSpec(n_clusters=3, cluster_size=2, n_members=10)
            scenario = build_scenario(spec, seed=seed)
            if mutation_rate > 0:
                Mutator(scenario, add_rate=mutation_rate / 2,
                        remove_rate=mutation_rate / 2).start()
            ws = DynamicSet(scenario.world, scenario.client, spec.coll_id,
                            record=False)
            outcome = scenario.kernel.run_process(iterate_until_stable(
                ws, max_rounds=max_rounds, pause_between=0.2))
            stable_counts.append(1 if outcome.stable else 0)
            if outcome.stable:
                rounds_when_stable.append(outcome.rounds)
            final_discrepancies.append(len(outcome.discrepancies))
        result.add(
            mutation_rate=mutation_rate,
            stable_rate=rate(sum(stable_counts), runs_per_point),
            mean_rounds_when_stable=mean_or_nan(rounds_when_stable),
            mean_final_discrepancy=(sum(final_discrepancies)
                                    / len(final_discrepancies)),
        )
    return result
