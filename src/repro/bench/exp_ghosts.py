"""E10 — §3.3's grow-only machinery: ghosts vs plain removal.

"To ensure that sets only grow during the iterator's use of the set, we
can prevent objects from being deleted until the iterator terminates.
Alternatively, we can create copies of any deleted objects and then
garbage collect these 'ghost' copies upon termination."

A churn workload removes members while a slow iterator runs.  Under the
ghost protocol (``grow-during-run``) the run sees every member it
started with (growth-only within a run, constraint verified); under
plain ``any`` removal takes effect immediately and the dynamic iterator
simply misses removed members.  The cost side: removals are deferred —
we measure how long ghosts linger.
"""

from __future__ import annotations

from ..errors import FailureException, MutationNotAllowed, StoreError
from ..sim.events import Sleep
from ..spec import check_conformance, spec_by_id
from ..store.repository import Repository
from ..wan.workload import ScenarioSpec, build_scenario
from ..weaksets import DynamicSet, PerRunGrowOnlySet
from .report import ExperimentResult

__all__ = ["run_ghosts"]


def _one_run(policy: str, cls, seed: int = 0, members: int = 10,
             think: float = 0.3, removals: int = 3):
    spec = ScenarioSpec(n_clusters=3, cluster_size=2, n_members=members,
                        policy=policy)
    scenario = build_scenario(spec, seed=seed)
    ws = cls(scenario.world, scenario.client, spec.coll_id)
    iterator = ws.elements()
    primary_repo = Repository(scenario.world, spec.primary)
    removal_info = {"requested_at": [], "took_effect_at": []}

    def remover():
        # remove a few members early in the run
        yield Sleep(think * 1.5)
        victims = sorted(scenario.elements, key=lambda e: e.name,
                         reverse=True)[:removals]
        for victim in victims:
            t0 = scenario.kernel.now
            try:
                yield from primary_repo.remove(spec.coll_id, victim)
            except (FailureException, MutationNotAllowed, StoreError):
                continue
            removal_info["requested_at"].append(t0)

    def consumer():
        yields = []
        while True:
            outcome = yield from iterator.invoke()
            if not outcome.suspends:
                break
            yields.append(outcome.element)
            yield Sleep(think)
        return yields

    scenario.kernel.spawn(remover(), daemon=True)
    yields = scenario.kernel.run_process(consumer())
    # let deferred purges complete
    scenario.kernel.run(until=scenario.kernel.now + 1.0)
    final = scenario.world.true_members(spec.coll_id)
    grow_only_ok = check_conformance(
        ws.last_trace, spec_by_id("fig5-per-run"),
        scenario.world).constraint_violations == []
    return {
        "yields": len(yields),
        "initial": members,
        "final": len(final),
        "coverage_of_initial": len([e for e in yields
                                    if e in set(scenario.elements)]) / members,
        "grow_only_during_run": grow_only_ok,
        "removals_effective": members - len(final),
    }


def run_ghosts(seed: int = 0) -> ExperimentResult:
    """E10: ghost protocol vs plain removal under a churn workload."""
    result = ExperimentResult(
        "E10", "§3.3 ghost protocol vs immediate removal (slow run, 3 removes)",
        columns=["policy", "impl", "yields", "coverage_of_initial",
                 "grow_only_during_run", "final_size"],
        notes="ghosts keep the run growth-only (full coverage) and defer "
              "removals to run end; plain removal loses members mid-run",
    )
    for label, policy, cls in (
            ("grow-during-run", "grow-during-run", PerRunGrowOnlySet),
            ("any (immediate remove)", "any", DynamicSet)):
        run = _one_run(policy, cls, seed=seed)
        result.add(policy=label, impl=cls.impl_name,
                   yields=run["yields"],
                   coverage_of_initial=run["coverage_of_initial"],
                   grow_only_during_run=run["grow_only_during_run"],
                   final_size=run["final"])
    return result
