"""E1 — the conformance matrix (Figures 1, 3, 4, 5, 6).

For each implementation, run it in its intended environment — with the
mutations and transient failures that environment permits — and check
the recorded trace against *every* figure specification.  The paper's
design-space ordering predicts the matrix's shape; the checker fills in
the cells mechanically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Type

from ..sim.events import Sleep
from ..spec import ALL_FIGURES, RELAXED_VARIANTS, check_conformance
from ..weaksets import (
    DynamicSet,
    Figure1Set,
    GrowOnlySet,
    ImmutableSet,
    PerRunGrowOnlySet,
    PerRunImmutableSet,
    SnapshotSet,
    WeakSet,
    install_lock_services,
)
from ..wan.workload import ScenarioSpec, build_scenario
from .report import ExperimentResult

__all__ = ["E1_WORLD", "IMPL_CASES", "MATRIX_SPECS", "ImplCase", "run_case",
           "run_conformance_matrix"]

MATRIX_SPECS = ALL_FIGURES + RELAXED_VARIANTS


@dataclass(frozen=True)
class ImplCase:
    """One implementation plus what its intended environment permits;
    its row id, collection policy and figure are the class's own."""

    cls: Type[WeakSet]
    mutate: str          # "none" | "grow" | "churn" | "between-runs"
    blip: bool           # inject a transient partition mid-run


IMPL_CASES: tuple[ImplCase, ...] = (
    ImplCase(Figure1Set, "none", blip=False),
    ImplCase(ImmutableSet, "none", blip=True),
    ImplCase(SnapshotSet, "churn", blip=True),
    ImplCase(GrowOnlySet, "grow", blip=True),
    ImplCase(PerRunImmutableSet, "between-runs", blip=False),
    ImplCase(PerRunGrowOnlySet, "churn", blip=True),
    ImplCase(DynamicSet, "churn", blip=True),
)

E1_WORLD = ScenarioSpec(n_clusters=3, cluster_size=2, n_members=10,
                        coll_id="coll")


def run_case(case: ImplCase, spec: ScenarioSpec, seed: int) -> WeakSet:
    """Drive ``case`` over a ``spec`` world under the policy its class
    expects: mutate, blip, drain.  Returns the weak set; the run to judge
    is its ``last_trace``."""
    scenario = build_scenario(
        replace(spec, policy=case.cls.expected_policy), seed=seed)
    coll = scenario.coll_id
    install_lock_services(scenario.world, coll)
    ws = case.cls(scenario.world, scenario.client, coll)

    def between_runs():
        """Two runs with a mutation in between (§3.1's intended usage);
        the second run's window saw only the between-runs world."""
        first = yield from ws.elements().drain()
        yield from ws.repo.add(coll, "between-runs", value="B")
        yield from ws.repo.remove(coll, first.elements[0])
        yield from ws.elements().drain()

    def mid_run():
        iterator = ws.elements()
        first = yield from iterator.invoke()
        if case.mutate in ("grow", "churn"):
            yield from ws.repo.add(coll, "zz-mid-add", value="A")
        if case.mutate == "churn":
            victim = next(
                (e for e in scenario.elements if e != first.element), None)
            if victim is not None:
                yield from ws.repo.remove(coll, victim)
        if case.blip:
            # n1.1 hosts objects only — never the primary, a shard or a
            # mirror in either experiment's layout
            scenario.net.isolate("n1.1")
            yield Sleep(0.3)
            scenario.net.rejoin("n1.1")
        yield from iterator.drain()

    scenario.kernel.run_process(
        between_runs() if case.mutate == "between-runs" else mid_run())
    return ws


def run_conformance_matrix(seeds: Iterable[int] = range(5)) -> ExperimentResult:
    """The E1 matrix: conforming runs per (implementation, figure)."""
    seeds = list(seeds)
    result = ExperimentResult(
        "E1", "Conformance matrix (conforming runs / total runs)",
        columns=["impl"] + [s.spec_id for s in MATRIX_SPECS],
        notes="each impl driven in its intended environment; "
              "checker = ensures + constraint over the run's window",
    )
    for case in IMPL_CASES:
        counts = {s.spec_id: 0 for s in MATRIX_SPECS}
        for seed in seeds:
            ws = run_case(case, E1_WORLD, seed)
            for figure in MATRIX_SPECS:
                report = check_conformance(ws.last_trace, figure, ws.world)
                if report.conformant:
                    counts[figure.spec_id] += 1
        row = {"impl": case.cls.impl_name}
        row.update({sid: f"{n}/{len(seeds)}" for sid, n in counts.items()})
        result.add(**row)
    return result
