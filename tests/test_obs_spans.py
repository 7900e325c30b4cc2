"""Tracer and SpanRecorder: nesting, per-context isolation, adoption,
virtual-clock timing — and what a run with no recorder keeps (nothing)."""

import gc
import hashlib
import weakref

import pytest

from repro.bench.exp_resilience import VARIANTS, crash_world, resilient_set
from repro.bench.harness import drain
from repro.net import FixedLatency, Network, full_mesh
from repro.obs import Span, Tracer, export_jsonl
from repro.sim import Fork, Join, Kernel, Sleep
from repro.sim.clock import Clock
from repro.store import AddSpec, Repository
from repro.wan import PopulationEngine, PopulationSpec, Stage, default_behaviors
from repro.wan.workload import ScenarioSpec, build_scenario
from repro.weaksets import DynamicSet

from helpers import CLIENT, drain_all, standard_world


def make_tracer(ctx_holder=None):
    """A tracer on a fresh clock with its recorder attached."""
    clock = Clock()
    if ctx_holder is None:
        tracer = Tracer(clock)
    else:
        tracer = Tracer(clock, context_key=lambda: ctx_holder[0])
    return clock, tracer, tracer.record()


# ---------------------------------------------------------------------------
# basic lifecycle and timing
# ---------------------------------------------------------------------------

def test_span_times_come_from_the_clock():
    clock, tracer, rec = make_tracer()
    clock.advance_to(1.0)
    span = tracer.start("work", color="red")
    clock.advance_to(3.5)
    tracer.finish(span, outcome="ok")
    assert (span.start, span.end) == (1.0, 3.5)
    assert span.duration == 2.5
    assert span.finished
    assert span.attrs == {"color": "red", "outcome": "ok"}


def test_finish_is_idempotent():
    clock, tracer, rec = make_tracer()
    span = tracer.start("work")
    clock.advance_to(1.0)
    tracer.finish(span)
    clock.advance_to(9.0)
    tracer.finish(span, late="yes")
    assert span.end == 1.0                      # first finish wins
    assert span.attrs["late"] == "yes"          # attrs still merge


def test_nesting_follows_start_order_within_a_context():
    clock, tracer, rec = make_tracer()
    outer = tracer.start("outer")
    inner = tracer.start("inner")
    innermost = tracer.start("innermost")
    assert inner.parent_id == outer.span_id
    assert innermost.parent_id == inner.span_id
    assert [s.name for s in rec.ancestors(innermost)] == ["inner", "outer"]
    assert rec.active() is innermost
    tracer.finish(innermost)
    assert rec.active() is inner
    tracer.finish(inner)
    tracer.finish(outer)
    assert rec.active() is None
    assert [s for s in rec.spans() if s.parent_id is None] == [outer]
    assert [s for s in rec.spans() if s.parent_id == outer.span_id] == [inner]


def test_out_of_order_finish_keeps_stack_sane():
    # A killed process can finish an outer span while an inner one is
    # still open; removal is by identity, not a blind pop.
    clock, tracer, rec = make_tracer()
    outer = tracer.start("outer")
    inner = tracer.start("inner")
    tracer.finish(outer)
    assert rec.active() is inner             # inner survives
    tracer.finish(inner)
    assert rec.active() is None


def test_explicit_parent_overrides_context():
    clock, tracer, rec = make_tracer()
    a = tracer.start("a")
    b = tracer.start("b", parent=a)
    orphanless = tracer.start("c", parent=b)
    assert b.parent_id == a.span_id
    assert orphanless.parent_id == b.span_id


# ---------------------------------------------------------------------------
# per-context isolation (the interleaving problem)
# ---------------------------------------------------------------------------

def test_interleaved_contexts_do_not_cross_parent():
    ctx = ["p1"]
    clock, tracer, rec = make_tracer(ctx)
    s1 = tracer.start("p1.work")                # p1 opens a span
    ctx[0] = "p2"                               # "scheduler" switches
    s2 = tracer.start("p2.work")
    assert s2.parent_id is None                 # NOT parented under p1.work
    inner2 = tracer.start("p2.inner")
    assert inner2.parent_id == s2.span_id
    ctx[0] = "p1"
    inner1 = tracer.start("p1.inner")
    assert inner1.parent_id == s1.span_id       # p1's stack undisturbed
    assert rec.active() is inner1
    ctx[0] = "p2"
    assert rec.active() is inner2


def test_adopt_seeds_child_context_with_forkers_span():
    ctx = ["parent"]
    clock, tracer, rec = make_tracer(ctx)
    base = tracer.start("drain")
    tracer.adopt("child", "parent")
    ctx[0] = "child"
    attempt = tracer.start("rpc.attempt")
    assert attempt.parent_id == base.span_id
    # the borrowed base belongs to the parent: finishing the child's own
    # span must not close (or pop) the drain span
    tracer.finish(attempt)
    ctx[0] = "parent"
    assert rec.active() is base
    assert not base.finished


def test_adopt_does_not_clobber_an_existing_context():
    ctx = ["a"]
    clock, tracer, rec = make_tracer(ctx)
    tracer.start("a.work")
    ctx[0] = "b"
    b_span = tracer.start("b.work")
    tracer.adopt("b", "a")                      # too late: b already has a stack
    inner = tracer.start("b.inner")
    assert inner.parent_id == b_span.span_id


# ---------------------------------------------------------------------------
# under the kernel: real processes, virtual time ordering
# ---------------------------------------------------------------------------

def test_kernel_processes_get_isolated_span_stacks():
    kernel = Kernel(seed=7)
    tracer = kernel.obs.tracer
    rec = tracer.record()

    def worker(name, delay):
        span = tracer.start(name)
        yield Sleep(delay)
        tracer.finish(span)
        return span

    def root():
        a = kernel.spawn(worker("a", 0.5))
        b = kernel.spawn(worker("b", 0.2))
        yield Sleep(1.0)
        return a, b

    kernel.run_process(root())
    a_span = rec.spans("a")[0]
    b_span = rec.spans("b")[0]
    # interleaved but isolated: neither parented under the other
    assert a_span.parent_id is None
    assert b_span.parent_id is None
    # timings come from virtual time, strictly ordered
    assert a_span.duration == 0.5
    assert b_span.duration == 0.2
    assert a_span.start == b_span.start == 0.0


def test_kernel_fork_adopts_parents_active_span():
    kernel = Kernel(seed=7)
    tracer = kernel.obs.tracer
    rec = tracer.record()

    def child():
        span = tracer.start("child.work")
        yield Sleep(0.1)
        tracer.finish(span)

    def parent():
        span = tracer.start("parent.work")
        yield Fork(child())
        yield Sleep(0.5)
        tracer.finish(span)

    kernel.run_process(parent())
    child_span = rec.spans("child.work")[0]
    parent_span = rec.spans("parent.work")[0]
    assert child_span.parent_id == parent_span.span_id


def test_an_adopted_context_is_released_when_it_ends():
    ctx = ["parent"]
    clock, tracer, rec = make_tracer(ctx)
    base = tracer.start("drain")
    assert tracer.adopt("child", "parent") is True
    assert tracer.adopt("orphan", "nobody") is False    # nothing to borrow
    ctx[0] = "child"
    tracer.finish(tracer.start("batch-1"))
    # drained of its own spans, the child keeps its base: the next batch
    # is the drain's too
    assert rec.active() is base
    assert tracer.start("batch-2").parent_id == base.span_id
    tracer.release("child")
    assert rec.active() is None
    tracer.release("child")                             # and again: nothing
    ctx[0] = "parent"
    assert rec.active() is base and not base.finished


def test_a_finished_adopted_process_leaves_the_tracer():
    """The borrowed base never pops, so an adopted child's stack never
    emptied and ``_stacks`` kept every finished worker and forked child
    as a key.  The kernel lets the base go when the child finishes —
    not when its stack drains: a worker parents batch after batch."""
    kernel, net, world, elements = standard_world(members=10, n_servers=2)
    tracer = kernel.obs.tracer
    rec = tracer.record()
    repo = Repository(world, CLIENT)

    def finished_keys():
        return [proc for proc in rec._stacks
                if proc is not None and proc.finished]

    kernel.run_process(repo.add_many(
        "coll", [AddSpec(f"b{i}", value=i, home=f"s{i % 2}") for i in range(6)],
        window=2, batch_size=2))
    assert rec.spans("write.batch") and finished_keys() == []
    result = drain_all(kernel, DynamicSet(world, CLIENT, "coll",
                                          fetch_window=1, fetch_batch=2))
    assert len(result.elements) == 16 and finished_keys() == []
    # one worker, many batches, every one of them the pipeline's
    (pipeline,) = rec.spans("fetch.pipeline")
    batches = rec.spans("fetch.batch")
    assert len(batches) >= 8
    assert {span.parent_id for span in batches} == {pipeline.span_id}

    # a forked child too; and one nothing else names (the kernel keeps
    # no table of processes) is freed on the spot, generator and all, by
    # reference count
    probes = []

    def child():
        span = tracer.start("child.work")
        yield Sleep(0.1)
        tracer.finish(span)

    def spanless():
        yield Sleep(0.1)

    def parent():
        span = tracer.start("parent.work")
        forked = yield Fork(child())
        generator = spanless()      # a Process takes no weak reference
        probes.append(weakref.ref(generator))
        kernel.adopt(kernel.spawn(generator), kernel.current_process)
        del generator
        yield Join(forked)
        yield Sleep(0.5)
        tracer.finish(span)

    gc.collect()
    gc.disable()
    try:
        kernel.run_process(parent())
        assert [probe() for probe in probes] == [None]
    finally:
        gc.enable()
    (parent_span,) = rec.spans("parent.work")
    assert [span.parent_id for span in rec.spans("child.work")] == \
        [parent_span.span_id]
    assert finished_keys() == []


def test_span_ids_are_unique_and_dense():
    clock, tracer, rec = make_tracer()
    spans = [tracer.start(f"s{i}") for i in range(5)]
    ids = [s.span_id for s in spans]
    assert len(set(ids)) == 5
    assert rec.by_id(ids[3]) is spans[3]
    assert rec.by_id(99999) is None


def test_span_to_dict_shape():
    clock, tracer, rec = make_tracer()
    span = tracer.start("x", k="v")
    tracer.finish(span)
    d = span.to_dict()
    assert d == {"span_id": span.span_id, "parent_id": None, "name": "x",
                 "start": 0.0, "end": 0.0, "attrs": {"k": "v"}}
    assert isinstance(span, Span)


def test_a_recorded_span_does_not_keep_the_process_that_opened_it():
    """A finished span lets go of its context: the process that opened
    it, and the result that process returned, die by reference count
    while the span stays recorded."""
    kernel = Kernel()
    tracer = kernel.obs.tracer
    rec = tracer.record()

    class Held:
        pass

    def worker():
        outer = tracer.start("outer")
        inner = tracer.start("inner")
        yield Sleep(0.1)
        tracer.finish(inner)
        tracer.finish(outer)
        return Held()

    gc.collect()
    gc.disable()
    try:
        proc = kernel.spawn(worker())
        kernel.run()
        probes = [weakref.ref(proc.generator), weakref.ref(proc.result)]
        del proc
        assert [probe() for probe in probes] == [None, None]
        assert [(span.name, span.duration) for span in rec] == \
            [("outer", 0.1), ("inner", 0.1)]
        assert rec._stacks == {}
    finally:
        gc.enable()


# -- what a seeded run keeps ---------------------------------------------------

#: E17's seed-1 resilient drain with a recorder attached to the built
#: world: how many spans it keeps, a digest of every span's
#: ``(span_id, parent_id)`` and one of the span JSONL export (its header
#: and span records; the registry's metrics are left out, so a new or
#: renamed metric moves nothing here).  A recorder that numbers, parents
#: or keeps one span differently, or formats one attribute differently,
#: moves one of the three.
RETAINED = (98,
            "1fed36999ac974fd084ac0623063b955ce52d9a7671e7158049cb07d8980fd52",
            "6ed687298299d75c16a05dd881a381de0650141d7f752daa2afb7736cc73fdb6")


def seeded_drain(record: bool):
    """E17's seed-1 drain, its recorder attached (or not) once the world
    is built; returns the scenario."""
    scenario = build_scenario(crash_world(0.1, 10), seed=1)
    _, make_resilience, failover = VARIANTS[-1]
    ws = resilient_set(scenario, make_resilience, failover)
    if record:
        scenario.kernel.obs.tracer.record()
    drain(scenario, ws.elements())
    return scenario


def test_a_seeded_run_keeps_numbers_and_exports_the_spans_it_did(tmp_path):
    rec = seeded_drain(record=True).kernel.obs.tracer.recorder
    path = tmp_path / "spans.jsonl"
    export_jsonl(path, spans=rec)
    links = repr([(span.span_id, span.parent_id) for span in rec])
    assert (len(rec), hashlib.sha256(links.encode()).hexdigest(),
            hashlib.sha256(path.read_bytes()).hexdigest()) == RETAINED


#: The same drain exported whole by ``kernel.obs.export`` (header, every
#: metric, every span): what a span records does not depend on when the
#: recorder lets go of the process that opened it, nor on the recorder
#: being attached after the world was built.
WHOLE_EXPORT = \
    "dba5ffaab80f894a4a26cf1c1f975fc3985af78f5b6ff7d389aed0c133358855"


def test_a_seeded_run_exports_the_same_whole_trace(tmp_path):
    scenario = seeded_drain(record=True)
    path = tmp_path / "run.jsonl"
    scenario.kernel.obs.export(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == WHOLE_EXPORT


# -- what a run with no recorder keeps ------------------------------------------

class Echo:
    def echo(self, x):
        return x


def test_settled_calls_with_no_recorder_leave_the_tracer_nothing(monkeypatch):
    """Unrecorded, a span is a start time: 1000 settled RPCs build no
    :class:`Span`, ask no context, leave no stack, hang no waiter on a
    forked child's ``done`` — and still feed every attempt's latency."""
    built = []
    span_init = Span.__init__

    def counting(self, *args, **kwargs):
        built.append(args[1])
        span_init(self, *args, **kwargs)

    monkeypatch.setattr(Span, "__init__", counting)
    asked = []
    kernel = Kernel(seed=3)
    kernel.obs.tracer._context_key = lambda: asked.append(1)
    net = Network(kernel, full_mesh(["a", "b"], FixedLatency(0.01)))
    net.register_service("b", "echo", Echo())
    waited, probes = [], []

    def forked():
        yield from net.call("a", "b", "echo", "echo", 0, timeout=1.0)

    def proc():
        for i in range(999):
            assert (yield from net.call("a", "b", "echo", "echo", i,
                                        timeout=1.0)) == i
        generator = forked()
        probes.append(weakref.ref(generator))
        child = yield Fork(generator)
        del generator
        yield Sleep(1.0)
        assert child.finished
        waited.append(child._done)

    gc.collect()
    gc.disable()
    try:
        kernel.run_process(proc())
    finally:
        gc.enable()
    tracer = kernel.obs.tracer
    assert tracer.recorder is None and repr(tracer) == "Tracer(unrecorded)"
    assert set(Tracer.__slots__) == {"_clock", "_context_key", "recorder"}
    assert built == [] and asked == []
    # the finished child had no done built, and died by reference count
    assert waited == [None] and [probe() for probe in probes] == [None]
    latency = kernel.obs.metrics.get("rpc.attempt_latency")
    assert latency.count == 1000
    assert latency.vmin == pytest.approx(latency.vmax) == pytest.approx(0.02)


def test_an_unrecorded_span_is_timed_for_its_caller():
    clock = Clock()
    tracer = Tracer(clock)
    clock.advance_to(1.0)
    token = tracer.start("work", dst="s1")
    clock.advance_to(3.5)
    assert tracer.finish(token, outcome="ok") == 2.5
    assert tracer.adopt("child", "parent") is False
    # a span opened before the recorder attached is still timed by it,
    # and kept by nothing
    rec = tracer.record()
    assert tracer.record() is rec                       # attached once
    clock.advance_to(4.0)
    assert tracer.finish(token) == 3.0 and len(rec) == 0


def test_the_recorder_formats_raw_attributes_as_text():
    clock, tracer, rec = make_tracer()

    class Node:
        def __str__(self):
            return "n7"

    span = tracer.start("rpc.attempt", src=Node(), dst="s1",
                        service="store", method="get", hops=2, hedged=True)
    tracer.finish(span, winner=Node(), dsts=("s1", Node()), gone=None)
    assert span.attrs == {"src": "n7", "dst": "s1", "method": "store.get",
                          "hops": 2, "hedged": True, "winner": "n7",
                          "dsts": "s1,n7", "gone": None}
    assert list(span.attrs)[:3] == ["src", "dst", "method"]


def population_run(record: bool):
    """A seeded 8:1:1 population on 4x4 nodes and 40 members at the
    ``pop_ramp`` workload's arrival rate (a 20 s ramp-up, 50 s steady,
    10 s at a quarter); returns the kernel."""
    scenario = build_scenario(
        ScenarioSpec(n_clusters=4, cluster_size=4, n_members=40), seed=5)
    spec = PopulationSpec(
        behaviors=default_behaviors(scenario),
        stages=(Stage(duration=20.0, arrival_rate=12.0, name="ramp-up"),
                Stage(duration=50.0, arrival_rate=12.0, name="steady"),
                Stage(duration=10.0, arrival_rate=3.0, name="cool-down")),
        arrival="lognormal", lognormal_sigma=1.0, audit_fraction=0.01)
    engine = PopulationEngine(scenario, spec)
    if record:
        scenario.kernel.obs.tracer.record()
    engine.run()
    return scenario.kernel


def test_a_population_run_measures_the_same_with_and_without_a_recorder():
    plain = population_run(record=False)
    recorded = population_run(record=True)
    assert plain.obs.tracer.recorder is None
    spans = recorded.obs.tracer.recorder.spans()
    assert len(spans) > 1000 and {"drain", "rpc.attempt"} <= \
        {span.name for span in spans}
    snapshot = plain.obs.metrics.snapshot()
    assert snapshot["population.arrivals"]["value"] > 500
    assert recorded.obs.metrics.snapshot() == snapshot
