"""Chaos fuzzing: randomized fault schedules + churn, conformance always.

The strongest correctness statement the reproduction makes: for *any*
interleaving of crashes, partitions, heals, and mutations (drawn by
hypothesis), the dynamic iterator's trace satisfies Figure 6 and the
grow-only iterator's trace satisfies Figure 5.  This is the checker and
the implementations validating each other under adversarial schedules.

The two *best-effort* rows the paper never draws — a pessimistic
iterator that returns short instead of failing — are run the same way:
no class was written for them, only the row changed, and each must
conform to its own row and never fail.

A dynamic-sets handle (``setOpen`` / ``setIterate`` / ``setClose``) is
Figure 6's second client, so the same schedules drain one too.
"""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.dynsets import DynSetHandle
from repro.errors import FailureException, StoreError
from repro.sim import Sleep
from repro.spec import Failed, check_conformance, spec_by_id
from repro.spec.iterspec import RETURNS
from repro.store import Repository
from repro.wan import ScenarioSpec, build_scenario
from repro.weaksets import DynamicSet, GrowOnlySet, SnapshotSet

CHAOS_NODES = ["n1.0", "n1.1", "n2.0", "n2.1"]

#: schedules drawn per property: a quarter of the profile's budget — 25
#: in tier-1, 500 in the chaos soak job (``--hypothesis-profile=soak``)
SCHEDULES = settings(max_examples=settings().max_examples // 4, deadline=None)

chaos_action = st.sampled_from(
    [f"crash:{n}" for n in CHAOS_NODES]
    + [f"recover:{n}" for n in CHAOS_NODES]
    + [f"isolate:{n}" for n in CHAOS_NODES]
    + ["heal", "add", "remove", "sleep"]
)


def apply_action(scenario, repo, action, counter):
    net = scenario.net
    kind, _, target = action.partition(":")
    if kind == "crash":
        if net.node(target).up:
            net.crash(target)
    elif kind == "recover":
        net.recover(target)
    elif kind == "isolate":
        net.isolate(target)
    elif kind == "heal":
        net.heal()
    elif kind == "add":
        counter[0] += 1
        yield from repo.add("coll", f"chaos-{counter[0]}",
                            value=counter[0], home=CHAOS_NODES[counter[0] % 4])
    elif kind == "remove":
        members = sorted(scenario.world.true_members("coll"),
                         key=lambda e: e.name)
        if members:
            yield from repo.remove("coll", members[0])
    yield Sleep(0.15)


def drain(ws):
    return ws.elements().drain()     # the iterator exists before the chaos does


def open_iterate_close(handle):
    yield from handle.open()
    yield from handle.iterate_all()
    handle.close()


def run_chaos(impl_cls, policy, actions, seed, forbid=(), query=drain):
    spec = ScenarioSpec(n_clusters=3, cluster_size=2, n_members=8,
                        policy=policy, coll_id="coll")
    scenario = build_scenario(spec, seed=seed)
    repo = Repository(scenario.world, spec.primary)
    ws = impl_cls(scenario.world, scenario.client, "coll",
                  **({"retry_interval": 0.2}
                     if impl_cls in (DynamicSet, DynSetHandle) else {}))
    run = query(ws)
    counter = [0]

    def chaos():
        for action in actions:
            if action.split(":")[0] in forbid:
                continue
            try:
                yield from apply_action(scenario, repo, action, counter)
            except (FailureException, StoreError):
                pass
        # always end in a healed, all-up world so optimism can finish
        scenario.net.heal()
        for node in CHAOS_NODES:
            scenario.net.recover(node)

    scenario.kernel.spawn(chaos(), daemon=True)
    proc = scenario.kernel.spawn(run, name="query")
    scenario.kernel.run(until=600.0)
    assert proc.finished, "query did not finish even after full heal"
    return ws, scenario


@given(st.integers(min_value=0, max_value=99999),
       st.lists(chaos_action, min_size=1, max_size=12))
@SCHEDULES
def test_dynamic_always_conforms_to_fig6_under_chaos(seed, actions):
    ws, scenario = run_chaos(DynamicSet, "any", actions, seed)
    report = check_conformance(ws.last_trace, spec_by_id("fig6"),
                               scenario.world)
    assert report.conformant, report.counterexample()


@given(st.integers(min_value=0, max_value=99999),
       st.lists(chaos_action, min_size=1, max_size=12))
@SCHEDULES
def test_grow_only_always_conforms_to_fig5_under_chaos(seed, actions):
    # removes are rejected by the grow-only policy; chaos still includes
    # them to exercise the rejection path
    ws, scenario = run_chaos(GrowOnlySet, "grow-only", actions, seed)
    report = check_conformance(ws.last_trace, spec_by_id("fig5"),
                               scenario.world)
    assert report.conformant, report.counterexample()


@given(st.integers(min_value=0, max_value=99999),
       st.lists(chaos_action, min_size=1, max_size=12))
@SCHEDULES
def test_an_open_dynamic_set_conforms_to_fig6_under_chaos(seed, actions):
    handle, scenario = run_chaos(DynSetHandle, "any", actions, seed,
                                 query=open_iterate_close)
    report = handle.audit()
    assert report.spec_id == "fig6"
    assert report.conformant, report.counterexample()
    # what setIterate handed out was a member in some state of the run
    window = frozenset().union(*(
        snap.members for inv in handle.set.last_trace.invocations
        for snap in inv.snapshots))
    assert {r.element for r in handle.results if r.ok} <= window


class BestEffortSnapshotSet(SnapshotSet):
    """(first, reachable(s), reachable(s), returns): Figure 4, returning
    short where it would fail."""

    spec = replace(spec_by_id("fig4"), spec_id="fig4-best-effort",
                   exhausted=RETURNS)
    impl_name = "best-effort-snapshot"


class BestEffortGrowOnlySet(GrowOnlySet):
    """(pre, reachable(s), reachable(s), returns): Figure 5 likewise."""

    spec = replace(spec_by_id("fig5"), spec_id="fig5-best-effort",
                   exhausted=RETURNS)
    impl_name = "best-effort-grow-only"


def assert_best_effort(ws, scenario):
    trace = ws.last_trace
    assert not trace.failed, trace.invocations[-1].outcome
    assert not any(isinstance(inv.outcome, Failed) for inv in trace.invocations)
    report = ws.audit()
    assert report.spec_id == ws.spec.spec_id
    assert report == check_conformance(trace, ws.spec, scenario.world)
    assert report.conformant, report.counterexample()


@given(st.integers(min_value=0, max_value=99999),
       st.lists(chaos_action, min_size=1, max_size=12))
@SCHEDULES
def test_best_effort_snapshot_conforms_to_its_own_row_under_chaos(seed, actions):
    ws, scenario = run_chaos(BestEffortSnapshotSet, "any", actions, seed)
    assert_best_effort(ws, scenario)


@given(st.integers(min_value=0, max_value=99999),
       st.lists(chaos_action, min_size=1, max_size=12))
@SCHEDULES
def test_best_effort_grow_only_conforms_to_its_own_row_under_chaos(seed, actions):
    ws, scenario = run_chaos(BestEffortGrowOnlySet, "grow-only", actions, seed)
    assert_best_effort(ws, scenario)


@given(st.integers(min_value=0, max_value=99999),
       st.floats(min_value=0.0, max_value=0.3))
@SCHEDULES
def test_dynamic_conforms_over_lossy_links_too(seed, loss_rate):
    """Message loss (not just partitions) cannot break Figure 6."""
    spec = ScenarioSpec(n_clusters=2, cluster_size=2, n_members=6,
                        coll_id="coll", rpc_timeout=0.3)
    scenario = build_scenario(spec, seed=seed)
    for link in scenario.net.topology.links():
        link.loss_rate = loss_rate
    ws = DynamicSet(scenario.world, scenario.client, "coll",
                    retry_interval=0.2)
    iterator = ws.elements()

    def query():
        return (yield from iterator.drain())

    proc = scenario.kernel.spawn(query(), name="query")
    scenario.kernel.run(until=600.0)
    assert proc.finished
    report = check_conformance(ws.last_trace, spec_by_id("fig6"),
                               scenario.world)
    assert report.conformant, report.counterexample()
