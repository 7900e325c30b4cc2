#!/usr/bin/env python3
"""The paper's first motivating query: "display the .face files of all
people listed on Carnegie Mellon's home page" — under real failures.

Compares the dynamic-sets (Figure 6) query against the strong
(locking) baseline on the same world.

Run:  python examples/www_faces.py
"""

from repro.net import FaultPlan
from repro.spec import Returned
from repro.wan import build_faces
from repro.weaksets import install_lock_services


def run_query(semantics: str, seed: int = 7):
    plan = FaultPlan(crash_rate=0.015, isolate_rate=0.015, mean_downtime=1.5,
                     protected=frozenset({"client", "n0.0"}))
    workload = build_faces(seed=seed, n_people=32, fault_plan=plan)
    install_lock_services(workload.world, workload.scenario.coll_id)
    arrivals = []

    ws = workload.home_page(semantics)
    iterator = ws.elements()

    def proc():
        while True:
            outcome = yield from iterator.invoke()
            if not outcome.suspends:
                return outcome
            arrivals.append((workload.kernel.now, outcome.value))

    outcome = workload.kernel.run_process(proc())
    if workload.scenario.injector is not None:
        workload.scenario.injector.stop()
    return workload, outcome, arrivals


def main() -> None:
    for semantics in ("dynamic", "strong"):
        workload, outcome, arrivals = run_query(semantics)
        ok = isinstance(outcome, Returned)
        print(f"--- semantics={semantics} ---")
        print(f"finished at t={workload.kernel.now:.2f}s, "
              f"{'completed' if ok else f'FAILED ({outcome})'}; "
              f"{len(arrivals)} faces displayed")
        if arrivals:
            t_first = arrivals[0][0]
            t_last = arrivals[-1][0]
            print(f"first face on screen at t={t_first:.3f}s, last at t={t_last:.2f}s")
            for t, face in arrivals[:5]:
                print(f"  [{t:7.3f}s] {face}")
            if len(arrivals) > 5:
                print(f"  ... and {len(arrivals) - 5} more")
        print()


if __name__ == "__main__":
    main()
