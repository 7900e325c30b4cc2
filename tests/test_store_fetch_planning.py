"""Planning equivalence: ``FetchPipeline.submit`` plans only its new
candidates, ``order_closest_first`` asks the network once per home, and
``_form_batch`` coalesces from the head's home's queue — yet they accept,
order and batch exactly as "sort everything, then skip the pending ones"
/ "one latency question per element" / "rebuild everything that remains,
per batch" did.  The references are written here.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import FixedLatency, Network, full_mesh
from repro.sim import Kernel
from repro.store import FetchPipeline, Repository, World, order_closest_first

CLIENT = "client"
SERVERS = ["s0", "s1", "s2", "s3"]
FAR = float("inf")


def build(homes):
    """A client and four servers at four distances (the long server-to-
    server links keep every direct route the shortest until it is cut);
    member ``i`` lives at ``homes[i]``."""
    def latency_for(a, b):
        if CLIENT in (a, b):
            server = b if a == CLIENT else a
            return FixedLatency(0.004 * (1 + SERVERS.index(server)))
        return FixedLatency(0.05)

    kernel = Kernel(seed=0)
    net = Network(kernel, full_mesh([CLIENT] + SERVERS, latency_for=latency_for))
    world = World(net)
    world.create_collection("coll", primary="s0")
    # names deliberately not in seeding order
    elements = [world.seed_member("coll", f"m{(7 * i) % 31:02d}", value=i, home=home)
                for i, home in enumerate(homes)]
    return kernel, net, world, elements


def apply_faults(net, faults):
    for kind, server in faults:
        if kind == "isolate":
            net.isolate(server)
        elif kind == "crash":
            net.crash(server)
        else:
            net.cut_link(CLIENT, server)     # still reachable, the long way


# -- the references ---------------------------------------------------------

def ref_closest_first(net, elements):
    """One latency question per element, unreachable = infinitely far."""
    def key(e):
        latency = net.expected_latency(CLIENT, e.home)
        return (latency if latency is not None else FAR, e.name)
    return sorted(elements, key=key)


def ref_accepted(net, live_oids, elements):
    """Sort everything submitted, then skip what is already pending."""
    live, accepted = set(live_oids), []
    for element in ref_closest_first(net, elements):
        if element.oid in live:
            continue
        live.add(element.oid)
        accepted.append(element)
    return accepted


faults = st.lists(st.tuples(st.sampled_from(["isolate", "crash", "cut"]),
                            st.sampled_from(SERVERS)), max_size=3)


@settings(max_examples=60)
@given(homes=st.lists(st.sampled_from(SERVERS), min_size=1, max_size=12),
       faults=faults, data=st.data())
def test_order_closest_first_is_the_per_element_sort(homes, faults, data):
    kernel, net, world, elements = build(homes)
    apply_faults(net, faults)
    candidates = data.draw(st.lists(st.sampled_from(elements), max_size=16))
    ordered = order_closest_first(net, CLIENT, candidates)
    assert ordered == ref_closest_first(net, candidates)
    reachable = [net.expected_latency(CLIENT, e.home) is not None for e in ordered]
    assert reachable == sorted(reachable, reverse=True)    # unreachable homes last
    # and the network was asked once per distinct home
    asked = []
    ask = net.expected_latency
    net.expected_latency = lambda a, b: asked.append(b) or ask(a, b)
    order_closest_first(net, CLIENT, candidates)
    assert sorted(asked) == sorted({e.home for e in candidates})


@settings(max_examples=60)
@given(homes=st.lists(st.sampled_from(SERVERS), min_size=2, max_size=12),
       faults=faults, data=st.data())
def test_resubmitting_a_half_delivered_remainder_accepts_as_before(
        homes, faults, data):
    kernel, net, world, elements = build(homes)
    first = data.draw(st.lists(st.sampled_from(elements), min_size=1,
                               unique=True), label="first submission")
    delivered_n = data.draw(st.integers(0, len(first)), label="delivered")
    # the remainder an iterator resubmits: anything, in any order, twice
    again = data.draw(st.lists(st.sampled_from(elements), max_size=20),
                      label="resubmission")
    repo = Repository(world, CLIENT)
    pipe = FetchPipeline(repo, use_cache=False, window=3, batch_size=2)

    def drive():
        pipe.start()
        planned = ref_closest_first(net, first)
        assert pipe.submit(first) == len(first)
        for expected in planned[:delivered_n]:
            result = yield from pipe.next_result()
            assert result.element == expected
        pending = planned[delivered_n:]
        # connectivity moves between the two invocations
        apply_faults(net, faults)
        accepted = ref_accepted(net, [e.oid for e in pending], again)
        assert pipe.submit(again) == len(accepted)
        rest = []
        while pipe.pending:
            rest.append((yield from pipe.next_result()).element)
        pipe.stop()
        # in-order delivery is the accepted order: what was pending, then
        # the newly accepted, each once
        assert rest == pending + accepted

    kernel.run_process(drive())


def test_duplicates_within_one_submit_are_accepted_once():
    kernel, net, world, elements = build(["s2", "s0", "s1"])
    pipe = FetchPipeline(Repository(world, CLIENT), use_cache=False)
    a, b, c = elements

    def drive():
        pipe.start()
        assert pipe.submit([c, a, c, b, a, a]) == 3
        assert pipe.submit([a, b, c, c]) == 0           # all pending: idempotent
        got = []
        while pipe.pending:
            got.append((yield from pipe.next_result()).element)
        pipe.stop()
        return got

    assert kernel.run_process(drive()) == ref_closest_first(net, elements)


# -- batches: coalescing walks one home's queue ------------------------------

def ref_form_batch(todo, state, *, window, batch_size, max_batch_bytes, size_of):
    """``_form_batch`` as it was: take the head, then rebuild everything
    that remains, moving its same-home elements into the batch while the
    item limit and the byte budget allow."""
    budget = window - state["in_flight"]
    if budget <= 0 or not todo:
        return None
    head = todo.pop(0)
    limit = min(batch_size, budget)
    if state["issued"] == 0:
        limit = 1                        # slow start: a singleton first
    batch = [head]
    byte_budget = None
    if max_batch_bytes is not None:
        byte_budget = max_batch_bytes - size_of(head)
    if limit > 1 and todo:
        rest = []
        for element in todo:
            if len(batch) < limit and element.home == head.home:
                if byte_budget is not None:
                    cost = size_of(element)
                    if cost > byte_budget:
                        rest.append(element)
                        continue
                    byte_budget -= cost
                batch.append(element)
            else:
                rest.append(element)
        todo[:] = rest
    state["in_flight"] += len(batch)
    state["issued"] += 1
    return batch


@settings(max_examples=120)
@given(homes=st.lists(st.sampled_from(SERVERS), min_size=1, max_size=24),
       window=st.integers(1, 6), batch_size=st.integers(1, 5),
       max_batch_bytes=st.none() | st.integers(0, 40), data=st.data())
def test_batches_form_as_when_everything_left_was_rebuilt_per_batch(
        homes, window, batch_size, max_batch_bytes, data):
    kernel, net, world, elements = build(homes)
    size = {e.oid: data.draw(st.integers(1, 20), label=f"size {e.name}")
            for e in elements}
    late_n = data.draw(st.integers(0, len(elements)), label="submitted late")
    early, late = elements[late_n:], elements[:late_n]
    pipe = FetchPipeline(Repository(world, CLIENT), use_cache=False,
                         window=window, batch_size=batch_size,
                         max_batch_bytes=max_batch_bytes,
                         size_hint=lambda e: size[e.oid])
    options = dict(window=window, batch_size=batch_size,
                   max_batch_bytes=max_batch_bytes,
                   size_of=lambda e: size[e.oid])
    # no workers: the test forms the batches, and settles them itself
    assert pipe.submit(early) == len(early)
    ref_todo = ref_accepted(net, [], early)
    state = {"in_flight": 0, "issued": 0}
    todo_queue = pipe._todo
    outstanding, formed = [], 0
    while ref_todo or late:
        if late and data.draw(st.booleans(), label="the rest arrives"):
            ref_todo += ref_accepted(net, [e.oid for e in early], late)
            assert pipe.submit(late) == len(late)
            late = []
        expected = ref_form_batch(ref_todo, state, **options)
        assert pipe._form_batch() == expected
        if expected is not None:
            outstanding.append(expected)
            formed += 1
        if outstanding and (expected is None or data.draw(
                st.booleans(), label="the oldest batch settles")):
            settled = len(outstanding.pop(0))
            state["in_flight"] -= settled
            pipe._in_flight -= settled
        elif expected is None:
            break                        # nothing due yet, nothing in flight
    assert pipe._batches_issued == formed
    if not ref_todo and not late:
        assert pipe._form_batch() is None
        assert not pipe._todo and not pipe._todo_by_home
    # one queue, kept: a batch takes from it, nothing rebuilds it
    assert pipe._todo is todo_queue
