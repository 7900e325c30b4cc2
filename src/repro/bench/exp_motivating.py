"""E7 — the three motivating queries, end-to-end, under failures.

WWW ``.face`` display, LIS author search, restaurant-menu browse — each
run with the dynamic-sets semantics and with the strong baseline, on a
world with background node churn.  The paper's claim: the weak query
returns the full reachable answer despite failures, while the strong
one fails or pays heavily.
"""

from __future__ import annotations

from ..net.failures import FaultPlan
from ..spec import Returned
from ..wan import build_faces, build_library, build_restaurants
from ..weaksets import install_lock_services, make_weak_set, select
from .harness import drain
from .report import ExperimentResult

__all__ = ["run_motivating"]


_PLAN = FaultPlan(crash_rate=0.01, isolate_rate=0.01, mean_downtime=1.5,
                  protected=frozenset({"client", "n0.0"}))

#: (query, world builder, its size, the query's predicate)
_QUERIES = (
    ("WWW .face display", build_faces, {"n_people": 30}, None),
    ("LIS papers by author", build_library, {"n_entries": 40},
     lambda e, v: v is not None and v.author == "wing"),
    ("Chinese restaurant menus", build_restaurants, {"n_restaurants": 24},
     lambda e, v: v is not None and v.cuisine == "chinese"),
)


def run_motivating(seed: int = 0) -> ExperimentResult:
    """E7: success, answers, and latency for each §1 query × semantics."""
    result = ExperimentResult(
        "E7", "The paper's motivating queries under failures (§1)",
        columns=["query", "semantics", "success", "answers",
                 "time_to_first", "total_time"],
        notes="dynamic completes with the full answer (waiting out "
              "failures); strong aborts when anything is unreachable",
    )
    for query_name, build, size, predicate in _QUERIES:
        for semantics in ("dynamic", "strong"):
            scenario = build(seed=seed, fault_plan=_PLAN, **size).scenario
            install_lock_services(scenario.world, scenario.coll_id)
            ws = make_weak_set(scenario.world, scenario.client,
                               scenario.coll_id, semantics, record=False)
            drained = drain(scenario, ws.elements() if predicate is None
                            else select(ws, predicate))
            result.add(
                query=query_name,
                semantics=semantics,
                success=isinstance(drained.outcome, Returned),
                answers=len(drained.yields),
                time_to_first=drained.time_to_first,
                total_time=drained.total_time,
            )
    return result
