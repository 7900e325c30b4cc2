"""§3.1/§3.3 relaxed specs checked against their implementations."""


from repro.spec import check_conformance, spec_by_id
from repro.weaksets import PerRunGrowOnlySet, PerRunImmutableSet, SnapshotSet, StrongSet

from helpers import CLIENT, check_trace_without_memo, drain_all, standard_world


def test_per_run_immutable_impl_conforms_to_relaxed_fig3():
    kernel, net, world, elements = standard_world(members=4, with_locks=True)
    reader = PerRunImmutableSet(world, CLIENT, "coll")
    writer = StrongSet(world, "s2", "coll")

    # run 1 (lock held; no mutation possible)
    drain_all(kernel, reader)

    # a mutation lands between runs
    def mutate():
        yield from writer.add("between-runs", value="B")

    kernel.run_process(mutate())

    # run 2
    drain_all(kernel, reader)

    spec = spec_by_id("fig3-per-run")
    for trace in reader.traces:
        report = check_conformance(trace, spec, world)
        assert report.conformant, report.counterexample()
    # but plain fig3 rejects: the set changed (between the runs)
    history = world.membership_history("coll")
    strict = spec_by_id("fig3")
    assert strict.constraint.check(history) != []


def test_relaxed_fig3_rejects_mid_run_mutation():
    """Without the lock discipline, a mid-run writer breaks the per-run
    constraint — the relaxed spec catches it."""
    kernel, net, world, elements = standard_world(members=4)
    # a snapshot iterator does not lock; writers are free to interleave
    ws = SnapshotSet(world, CLIENT, "coll")
    iterator = ws.elements()

    def proc():
        yield from iterator.invoke()
        yield from ws.repo.add("coll", "mid-run", value="M")
        yield from iterator.drain()

    kernel.run_process(proc())
    report = check_conformance(ws.last_trace, spec_by_id("fig3-per-run"), world)
    assert not report.conformant
    assert report.constraint_violations
    # the per-check reachable(x_σ) memo changes no verdict on this trace
    from repro.spec import ALL_FIGURES, RELAXED_VARIANTS
    verdicts = {spec.spec_id: spec.check_trace(ws.last_trace)
                for spec in ALL_FIGURES + RELAXED_VARIANTS}
    assert verdicts == {spec.spec_id: check_trace_without_memo(spec, ws.last_trace)
                        for spec in ALL_FIGURES + RELAXED_VARIANTS}
    assert any(verdicts.values())


def test_per_run_grow_only_impl_conforms_to_relaxed_fig5():
    kernel, net, world, elements = standard_world(
        members=4, policy="grow-during-run")
    ws = PerRunGrowOnlySet(world, CLIENT, "coll")
    iterator = ws.elements()

    def proc():
        first = yield from iterator.invoke()
        # a removal during the run becomes a ghost (growth-only upheld)
        victim = next(e for e in elements if e != first.element)
        yield from ws.repo.remove("coll", victim)
        # growth during the run is fine
        yield from ws.repo.add("coll", "zz-grown", value="G")
        yield from iterator.drain()

    kernel.run_process(proc())
    report = check_conformance(ws.last_trace, spec_by_id("fig5-per-run"), world)
    assert report.conformant, report.counterexample()
    # the strict fig5 constraint fails globally: the purge shrank the set
    kernel.run(until=kernel.now + 1.0)
    strict = spec_by_id("fig5")
    assert strict.constraint.check(world.membership_history("coll")) != []


def test_relaxed_variants_render_and_classify():
    from repro.spec import classify, render_spec

    relaxed3 = spec_by_id("fig3-per-run")
    text = render_spec(relaxed3)
    assert "during any run" in text
    c = classify(relaxed3)
    assert c.currency == "first-vintage"
    assert c.consistency == "weak"        # no longer fully serializable

    relaxed5 = spec_by_id("fig5-per-run")
    assert classify(relaxed5).currency == "first-bound"
