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

Last, the recorder is held to what it records: re-deriving only what
moved must write down, state for state and time for time, what asking
everything at every bracket writes — on the same schedules, plus the
two changes no ``on_change`` announces.
"""

from dataclasses import replace
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.dynsets import DynSetHandle
from repro.errors import FailureException, StoreError
from repro.sim import Sleep
from repro.spec import Failed, Yielded, check_conformance, spec_by_id
from repro.spec.iterspec import RETURNS
from repro.spec.state import InvocationRecord, StateSnapshot
from repro.spec.trace import TraceRecorder
from repro.store import Element, Repository
from repro.wan import ScenarioSpec, build_scenario
from repro.weaksets import DynamicSet, GrowOnlySet, SnapshotSet
from repro.weaksets import base as weaksets_base

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


# -- the recorder records what asking everything at every bracket records -----

class AskEverythingRecorder(TraceRecorder):
    """The reference: every bracket and every announced change asks the
    world for all of s_σ, the reachable nodes and the live replica
    copies, builds a snapshot, and keeps it unless it equals the last."""

    def invocation_started(self):
        self._open = True
        self._t_invoke = self.world.now
        self._snapshots = [self._sample()]
        self._unsubscribe = self.world.on_change(self._on_change)

    def invocation_completed(self, outcome):
        self._open = False
        self._unsubscribe()
        self._unsubscribe = None
        self._on_change()
        yielded_pre = self._yielded
        if isinstance(outcome, Yielded):
            self._yielded = self._yielded | {outcome.element}
        record = InvocationRecord(
            index=len(self.trace.invocations), t_invoke=self._t_invoke,
            t_complete=self.world.now, yielded_pre=yielded_pre,
            yielded_post=self._yielded, outcome=outcome,
            snapshots=tuple(self._snapshots))
        self.trace.invocations.append(record)
        if record.index == 0:
            self.trace.first_candidates = record.snapshots
        return record

    def _on_change(self):
        snap, last = self._sample(), self._snapshots[-1]
        if (snap.members, snap.reachable_nodes, snap.live_replicas) != (
                last.members, last.reachable_nodes, last.live_replicas):
            self._snapshots.append(snap)

    def _sample(self):
        world = self.world
        members = world.true_members(self.trace.coll_id)
        for e in members:
            if e.replicas:
                self._replicated.setdefault(e.home, set()).add(e)
        # reachable_from's answer, asked pair by pair: not from the
        # view the recorder under test reads
        client, net = self.trace.client, world.net
        nodes = frozenset(
            n for n in net.nodes if net.node(client).up
            and (n == client or net.can_reach(client, n)))
        live = frozenset(
            (loc, e.oid) for home in self._replicated.keys() - nodes
            for e in self._replicated[home] for loc in e.replicas
            if loc in nodes and (server := world.servers.get(loc)) is not None
            and server.has_object(e.oid))
        return StateSnapshot(world.now, members, nodes, live)


#: the two changes no ``on_change`` announces: a crash behind the
#: facade's back, and a raw write to the primary's member map (a new
#: name over an existing member's object)
unannounced_action = st.sampled_from(
    [f"raw-crash:{n}" for n in CHAOS_NODES] + ["raw-write"])


def record_chaos(actions, seed):
    """One fault schedule under a recorded Fig 6 drain over members with
    a replica copy each; returns the drain's trace."""
    spec = ScenarioSpec(n_clusters=3, cluster_size=2, n_members=12,
                        object_replicas=1, inter_latency=0.2, coll_id="coll")
    scenario = build_scenario(spec, seed=seed)
    world, net = scenario.world, scenario.net
    repo = Repository(world, spec.primary)
    ws = DynamicSet(world, scenario.client, "coll", retry_interval=0.2)
    counter = [0]

    def chaos():
        for action in actions:
            kind, _, target = action.partition(":")
            if kind == "raw-crash":
                net.node(target).crash()
            elif kind == "raw-write":
                counter[0] += 1
                state = world.servers[spec.primary].collections["coll"]
                if state.members:
                    e = min(state.members.values(), key=lambda e: e.name)
                    name = f"raw-{counter[0]}"
                    state.members[name] = Element(name, e.oid, e.home,
                                                  e.replicas)
            else:
                try:
                    yield from apply_action(scenario, repo, action, counter)
                except (FailureException, StoreError):
                    pass
            yield Sleep(0.02)
        net.heal()
        for node in CHAOS_NODES:
            net.recover(node)

    scenario.kernel.spawn(chaos(), daemon=True)
    scenario.kernel.spawn(drain(ws), name="query")
    scenario.kernel.run(until=600.0)
    return ws.last_trace


@given(st.integers(min_value=0, max_value=99999),
       st.lists(st.one_of(chaos_action, unannounced_action),
                min_size=1, max_size=12))
@SCHEDULES
def test_the_recorder_records_what_asking_everything_records(seed, actions):
    recorded = record_chaos(actions, seed)
    with mock.patch.object(weaksets_base, "TraceRecorder",
                           AskEverythingRecorder):
        reference = record_chaos(actions, seed)
    assert recorded.invocations
    assert len(recorded.invocations) == len(reference.invocations)
    for got, want in zip(recorded.invocations, reference.invocations):
        assert (got.t_invoke, got.t_complete, got.outcome) == (
            want.t_invoke, want.t_complete, want.outcome)
        # value and time: StateSnapshot equality is field by field
        assert got.snapshots == want.snapshots
    assert recorded.first_candidates == reference.first_candidates
