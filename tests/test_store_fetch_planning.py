"""Planning equivalence: ``FetchPipeline.submit`` plans only its new
candidates, and ``order_closest_first`` asks the network once per home —
yet both accept and order exactly as "sort everything, then skip the
pending ones" / "one latency question per element" did.  The references
are written here.
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


def ref_plan(net, priority, elements):
    if priority is not None:
        return sorted(elements, key=lambda e: (priority(e), e.name))
    return ref_closest_first(net, elements)


def ref_accepted(net, priority, live_oids, elements):
    """Sort everything submitted, then skip what is already pending."""
    live, accepted = set(live_oids), []
    for element in ref_plan(net, priority, elements):
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
       faults=faults, use_priority=st.booleans(), data=st.data())
def test_resubmitting_a_half_delivered_remainder_accepts_as_before(
        homes, faults, use_priority, data):
    kernel, net, world, elements = build(homes)
    weight = {e.oid: data.draw(st.integers(0, 3), label=f"weight {e.name}")
              for e in elements}
    priority = (lambda e: weight[e.oid]) if use_priority else None
    first = data.draw(st.lists(st.sampled_from(elements), min_size=1,
                               unique=True), label="first submission")
    delivered_n = data.draw(st.integers(0, len(first)), label="delivered")
    # the remainder an iterator resubmits: anything, in any order, twice
    again = data.draw(st.lists(st.sampled_from(elements), max_size=20),
                      label="resubmission")
    repo = Repository(world, CLIENT)
    pipe = FetchPipeline(repo, use_cache=False, window=3, batch_size=2,
                         priority=priority)

    def drive():
        pipe.start()
        planned = ref_plan(net, priority, first)
        assert pipe.submit(first) == len(first)
        for expected in planned[:delivered_n]:
            result = yield from pipe.next_result()
            assert result.element == expected
        pending = planned[delivered_n:]
        # connectivity moves between the two invocations
        apply_faults(net, faults)
        accepted = ref_accepted(net, priority, [e.oid for e in pending], again)
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
