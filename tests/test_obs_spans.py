"""Tracer: nesting, per-context isolation, adoption, virtual-clock timing."""

import gc
import weakref

from repro.obs import Span, Tracer
from repro.sim import Fork, Join, Kernel, Sleep
from repro.sim.clock import Clock
from repro.store import AddSpec, Repository
from repro.weaksets import DynamicSet

from helpers import CLIENT, drain_all, standard_world


def make_tracer(ctx_holder=None):
    clock = Clock()
    if ctx_holder is None:
        tracer = Tracer(clock)
    else:
        tracer = Tracer(clock, context_key=lambda: ctx_holder[0])
    return clock, tracer


# ---------------------------------------------------------------------------
# basic lifecycle and timing
# ---------------------------------------------------------------------------

def test_span_times_come_from_the_clock():
    clock, tracer = make_tracer()
    clock.advance_to(1.0)
    span = tracer.start("work", color="red")
    clock.advance_to(3.5)
    tracer.finish(span, outcome="ok")
    assert (span.start, span.end) == (1.0, 3.5)
    assert span.duration == 2.5
    assert span.finished
    assert span.attrs == {"color": "red", "outcome": "ok"}


def test_finish_is_idempotent():
    clock, tracer = make_tracer()
    span = tracer.start("work")
    clock.advance_to(1.0)
    tracer.finish(span)
    clock.advance_to(9.0)
    tracer.finish(span, late="yes")
    assert span.end == 1.0                      # first finish wins
    assert span.attrs["late"] == "yes"          # attrs still merge


def test_nesting_follows_start_order_within_a_context():
    clock, tracer = make_tracer()
    outer = tracer.start("outer")
    inner = tracer.start("inner")
    innermost = tracer.start("innermost")
    assert inner.parent_id == outer.span_id
    assert innermost.parent_id == inner.span_id
    assert [s.name for s in tracer.ancestors(innermost)] == ["inner", "outer"]
    assert tracer.active() is innermost
    tracer.finish(innermost)
    assert tracer.active() is inner
    tracer.finish(inner)
    tracer.finish(outer)
    assert tracer.active() is None
    assert tracer.roots() == [outer]
    assert tracer.children(outer) == [inner]


def test_out_of_order_finish_keeps_stack_sane():
    # A killed process can finish an outer span while an inner one is
    # still open; removal is by identity, not a blind pop.
    clock, tracer = make_tracer()
    outer = tracer.start("outer")
    inner = tracer.start("inner")
    tracer.finish(outer)
    assert tracer.active() is inner             # inner survives
    tracer.finish(inner)
    assert tracer.active() is None


def test_explicit_parent_overrides_context():
    clock, tracer = make_tracer()
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
    clock, tracer = make_tracer(ctx)
    s1 = tracer.start("p1.work")                # p1 opens a span
    ctx[0] = "p2"                               # "scheduler" switches
    s2 = tracer.start("p2.work")
    assert s2.parent_id is None                 # NOT parented under p1.work
    inner2 = tracer.start("p2.inner")
    assert inner2.parent_id == s2.span_id
    ctx[0] = "p1"
    inner1 = tracer.start("p1.inner")
    assert inner1.parent_id == s1.span_id       # p1's stack undisturbed
    assert tracer.active() is inner1
    ctx[0] = "p2"
    assert tracer.active() is inner2


def test_adopt_seeds_child_context_with_forkers_span():
    ctx = ["parent"]
    clock, tracer = make_tracer(ctx)
    base = tracer.start("drain")
    tracer.adopt("child", "parent")
    ctx[0] = "child"
    attempt = tracer.start("rpc.attempt")
    assert attempt.parent_id == base.span_id
    # the borrowed base belongs to the parent: finishing the child's own
    # span must not close (or pop) the drain span
    tracer.finish(attempt)
    ctx[0] = "parent"
    assert tracer.active() is base
    assert not base.finished


def test_adopt_does_not_clobber_an_existing_context():
    ctx = ["a"]
    clock, tracer = make_tracer(ctx)
    tracer.start("a.work")
    ctx[0] = "b"
    b_span = tracer.start("b.work")
    tracer.adopt("b", "a")                      # too late: b already has a stack
    inner = tracer.start("b.inner")
    assert inner.parent_id == b_span.span_id


# ---------------------------------------------------------------------------
# retention cap
# ---------------------------------------------------------------------------

def test_max_spans_caps_retention_but_not_timing():
    clock, tracer = make_tracer()
    tracer.max_spans = 2
    kept1 = tracer.start("a")
    tracer.finish(kept1)
    kept2 = tracer.start("b")
    tracer.finish(kept2)
    clock.advance_to(1.0)
    extra = tracer.start("c")
    clock.advance_to(2.0)
    tracer.finish(extra)
    assert len(tracer) == 2
    assert tracer.dropped == 1
    assert extra.duration == 1.0                # still timed for its caller


# ---------------------------------------------------------------------------
# under the kernel: real processes, virtual time ordering
# ---------------------------------------------------------------------------

def test_kernel_processes_get_isolated_span_stacks():
    kernel = Kernel(seed=7)
    tracer = kernel.obs.tracer

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
    a_span = tracer.spans("a")[0]
    b_span = tracer.spans("b")[0]
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
    child_span = tracer.spans("child.work")[0]
    parent_span = tracer.spans("parent.work")[0]
    assert child_span.parent_id == parent_span.span_id


def test_an_adopted_context_is_released_when_it_ends():
    ctx = ["parent"]
    clock, tracer = make_tracer(ctx)
    base = tracer.start("drain")
    assert tracer.adopt("child", "parent") is True
    assert tracer.adopt("orphan", "nobody") is False    # nothing to borrow
    ctx[0] = "child"
    tracer.finish(tracer.start("batch-1"))
    # drained of its own spans, the child keeps its base: the next batch
    # is the drain's too
    assert tracer.active() is base
    assert tracer.start("batch-2").parent_id == base.span_id
    tracer.release("child")
    assert tracer.active() is None
    tracer.release("child")                             # and again: nothing
    ctx[0] = "parent"
    assert tracer.active() is base and not base.finished


def test_a_finished_adopted_process_leaves_the_tracer():
    """The borrowed base never pops, so an adopted child's stack never
    emptied and ``_stacks`` kept every finished worker and forked child
    as a key.  The kernel lets the base go when the child finishes —
    not when its stack drains: a worker parents batch after batch."""
    kernel, net, world, elements = standard_world(members=10, n_servers=2)
    tracer = kernel.obs.tracer
    repo = Repository(world, CLIENT)

    def finished_keys():
        return [proc for proc in tracer._stacks
                if proc is not None and proc.finished]

    kernel.run_process(repo.add_many(
        "coll", [AddSpec(f"b{i}", value=i, home=f"s{i % 2}") for i in range(6)],
        window=2, batch_size=2))
    assert tracer.spans("write.batch") and finished_keys() == []
    result = drain_all(kernel, DynamicSet(world, CLIENT, "coll",
                                          fetch_window=1, fetch_batch=2))
    assert len(result.elements) == 16 and finished_keys() == []
    # one worker, many batches, every one of them the pipeline's
    (pipeline,) = tracer.spans("fetch.pipeline")
    batches = tracer.spans("fetch.batch")
    assert len(batches) >= 8
    assert {span.parent_id for span in batches} == {pipeline.span_id}

    # a forked child too; and one nothing else names (the kernel keeps
    # no table of transient processes, and this one starts no span to be
    # named by) is freed on the spot, generator and all, by reference
    # count
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
        kernel.adopt(kernel.spawn(generator, transient=True),
                     kernel.current_process)
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
    (parent_span,) = tracer.spans("parent.work")
    assert [span.parent_id for span in tracer.spans("child.work")] == \
        [parent_span.span_id]
    assert finished_keys() == []


def test_span_ids_are_unique_and_dense():
    clock, tracer = make_tracer()
    spans = [tracer.start(f"s{i}") for i in range(5)]
    ids = [s.span_id for s in spans]
    assert len(set(ids)) == 5
    assert tracer.by_id(ids[3]) is spans[3]
    assert tracer.by_id(99999) is None


def test_span_to_dict_shape():
    clock, tracer = make_tracer()
    span = tracer.start("x", k="v")
    tracer.finish(span)
    d = span.to_dict()
    assert d == {"span_id": span.span_id, "parent_id": None, "name": "x",
                 "start": 0.0, "end": 0.0, "attrs": {"k": "v"}}
    assert isinstance(span, Span)
