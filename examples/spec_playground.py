#!/usr/bin/env python3
"""The specification framework as a tool: run one implementation against
every figure and read the counterexamples.

This is the paper's design space made tangible — the same trace checked
against all five specifications, with the checker explaining exactly
why each stricter figure rejects it.

Run:  python examples/spec_playground.py
"""

from repro import check_conformance, spec_by_id
from repro.sim import Sleep
from repro.spec import ALL_FIGURES, explain_trace
from repro.wan import ScenarioSpec, build_scenario
from repro.weaksets import DynamicSet


def main() -> None:
    scenario = build_scenario(
        ScenarioSpec(n_clusters=3, cluster_size=2, n_members=8), seed=1)
    world, kernel, net = scenario.world, scenario.kernel, scenario.net

    ws = DynamicSet(world, scenario.client, scenario.coll_id)
    iterator = ws.elements()

    def churny_run():
        first = yield from iterator.invoke()
        # mutations mid-run: one addition, one removal
        yield from ws.repo.add(scenario.coll_id, "zz-added", value="new!")
        victim = next(e for e in scenario.elements if e != first.element)
        yield from ws.repo.remove(scenario.coll_id, victim)
        # and a transient partition
        net.isolate("n1.0")
        yield Sleep(0.4)
        net.rejoin("n1.0")
        yield from iterator.drain()

    kernel.run_process(churny_run())
    trace = ws.last_trace
    print(f"recorded: {trace}")
    print(f"yield order: {[e.name for e in trace.yielded_elements()]}")
    print()

    for figure in ALL_FIGURES:
        report = check_conformance(trace, figure, world)
        print(f"{figure.paper_figure:<9} ({figure.title})")
        print(f"  constraint: {figure.constraint.formula}")
        verdict = "CONFORMS" if report.conformant else "VIOLATES"
        print(f"  verdict: {verdict}")
        if not report.conformant:
            print(f"  counterexample: {report.counterexample()}")
            explanations = explain_trace(trace, figure)
            unjustified = [e for e in explanations if not e.justified]
            if unjustified:
                print(f"  explained: {len(explanations) - len(unjustified)} of "
                      f"{len(explanations)} invocations justified; the first "
                      f"that is not:")
                print(f"  {unjustified[0]}")
        print()

    fig6 = check_conformance(trace, spec_by_id("fig6"), world)
    assert fig6.conformant, "the dynamic iterator must satisfy its own spec"
    print("as the paper predicts: only Figure 6 (the implemented design "
          "point) accepts this execution.")


if __name__ == "__main__":
    main()
