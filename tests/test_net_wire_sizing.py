"""Sizing without encoding: exact, encoder-free on the send path, and
no longer-lived than its world.

``Transport.send`` prices every message with ``CompactCodec``'s
size-only walk; ``encode_message`` is the only thing that builds bytes
and is the oracle here.  The walk's one context dependence is the
per-message string-intern table (a string costs its bytes once and an
index afterwards, and the index grows a byte at 128 entries), so the
generated cases are steered across exactly those edges.  What depends
only on a message's shape is remembered per codec: the envelope per
(address strings, method, direction), a string's first-use bytes per
string, an element's fixed bytes per element, a listing's result per
intern table it follows.  The cases below are built to catch a memo
that is keyed on too little.
"""

import gc
import weakref
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import (
    ServerBusyFailure,
    SimulationError,
    TimeoutFailure,
)
from repro.net import CompactCodec, NaiveCodec, WireFormat
from repro.net.address import Address
from repro.net.message import Message
from repro.net.wire import (_ELEMENT_ENTRIES, _ENVELOPE_ENTRIES,
                            _FIRST_USE_ENTRIES, _LISTING_CONTEXTS,
                            _LISTING_ENTRIES, DELTA_SCHEMA, EXCEPTION_TYPES,
                            METHODS, Blob)
from repro.store import AddSpec
from repro.store.elements import Element
from repro.wan import PopulationEngine, PopulationSpec, Stage, default_behaviors
from repro.wan.workload import ScenarioSpec, build_scenario
from repro.weaksets import DynamicSet

from helpers import CLIENT, assert_sized_exactly, drain_all, standard_world

#: One long-lived codec across every generated example.  Its memo keeps
#: each sized element alive; if it did not, the ids of the elements
#: Hypothesis frees between examples would be reused and this file
#: would see another element's size.
WARM = CompactCodec()

NODES = ("client", "n0.0", "n0.1", "n1.2", "ノード")

#: The envelopes' addresses, built once as ``Network`` builds them: every
#: node is some element's home or replica, and one service is a node's
#: name, so an envelope can pre-intern a payload's strings.
POOL = tuple(Address(node, service) for node in NODES
             for service in ("app", "store", "client", "n0.1"))
CLIENT_APP, N00_STORE = Address("client", "app"), Address("n0.0", "store")


class Odd:
    """Schema-less: only the pickle fallback can carry it."""

    def __init__(self, x):
        self.x = x


def call(payload, method="get_objects", **envelope):
    return Message(src=CLIENT_APP, dst=N00_STORE, method=method,
                   payload=payload, **envelope)


# -- the payload grammar ------------------------------------------------------

names = st.one_of(
    st.text("abcm-0123456789", max_size=12),
    st.text("ab", min_size=128, max_size=300),            # 2-byte length
    st.text("名前ü☃-", min_size=1, max_size=60),          # UTF-8 != len
)


@st.composite
def elements(draw):
    name = draw(names)
    oid = draw(st.one_of(
        st.integers(0, 2**40).map(lambda n: f"{name}-{n}"),    # derived
        st.sampled_from([f"{name}-07", f"{name}-", f"{name}-0",
                         f"x{name}-3", "m-07", "m-0", "m-"]),
        names))
    return Element(name, oid, draw(st.sampled_from(NODES)),
                   replicas=tuple(draw(st.lists(st.sampled_from(NODES),
                                                max_size=3))))


@st.composite
def failures(draw):
    exc = draw(st.sampled_from(EXCEPTION_TYPES))(draw(names))
    # the encoder reads these three off any failure that carries them
    if draw(st.booleans()):
        exc.retry_after = draw(st.sampled_from([0.0, 0.125, 3.5]))
    if draw(st.booleans()):
        exc.owner = draw(st.sampled_from(NODES))
    if draw(st.booleans()):
        exc.invocation_index = draw(st.integers(0, 2**20))
    return exc


leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70), st.floats(),
    names, st.binary(max_size=200), elements(), failures(),
    st.sampled_from([KeyError("untagged"), Odd(5), Odd("名前")]),
)
hashable = st.one_of(st.integers(-2**20, 2**20), names, st.none())


def deltas(members):
    return st.fixed_dictionaries({
        "version": st.integers(0, 2**40),
        "sealed": st.booleans(),
        "ghosts": st.lists(names, max_size=3).map(tuple),
        "adds": st.lists(st.tuples(names, members, st.integers(0, 2**20)),
                         max_size=3).map(tuple),
        "removes": st.lists(st.tuples(names, st.integers(0, 2**20), members),
                            max_size=3).map(tuple),
        "epoch": st.integers(0, 300),
        "active_iterations": st.lists(st.integers(0, 2**20),
                                      max_size=3).map(tuple),
    })


def containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(hashable, children, max_size=4),
        st.sets(hashable, max_size=5),
        st.frozensets(hashable, max_size=5),
        st.builds(Blob, children, st.integers(-3, 5000)),
        deltas(children),                  # delta-shaped, odd members
        # the seven delta keys over values that are not delta-shaped
        st.fixed_dictionaries({key: children for key, _ in DELTA_SCHEMA}),
        # enough distinct strings to push later backrefs to two bytes
        st.integers(120, 140).flatmap(lambda n: st.tuples(
            st.just([f"s{i}" for i in range(n)] * 2), children)),
    )


payloads = st.recursive(leaves | deltas(elements()), containers,
                        max_leaves=25)

addresses = st.sampled_from(POOL) | st.builds(Address, st.sampled_from(NODES),
                                             names)

messages = st.builds(
    Message,
    src=addresses,
    dst=addresses,
    method=st.builds(lambda base, suffix: base + suffix,
                     st.sampled_from(METHODS + ("frobnicate", "名前")),
                     st.sampled_from(["", "!ok", "!error"])),
    payload=payloads,
    is_reply=st.booleans(),
    reply_to=st.none() | st.integers(0, 2**40),
    priority=st.integers(0, 300),
    msg_id=st.integers(0, 2**40),
)


@settings(max_examples=300)
@given(messages)
def test_size_walk_agrees_with_the_encoder(msg):
    assert_sized_exactly(msg)
    assert_sized_exactly(msg, WARM)


def test_size_walk_crosses_the_three_byte_backref_edge():
    many = [f"s{i}" for i in range(16_500)]
    assert_sized_exactly(call((many, many, Element("s16499", "s16499-1",
                                                   "s9"))))


# -- the leaves the walk sizes inline: each edge where a byte is added ---------

@pytest.mark.parametrize("text", [
    "a" * 127, "a" * 128,
    "ü" * 64,              # 64 characters, 128 UTF-8 bytes
    "ü" * 63 + "a",        # 64 characters, 127 UTF-8 bytes
], ids=["ascii-127", "ascii-128", "utf8-128", "utf8-127"])
def test_a_string_is_sized_inline_across_its_length_byte_edge(text):
    assert_sized_exactly(call(text))
    assert_sized_exactly(call((text, text)))


def test_a_back_reference_is_sized_inline_across_its_index_edge():
    # The envelope interns four strings, so in the message these repeat
    # intern indices 127 and 128 (as a bare payload, 123 and 124); then
    # the bare payload's own 127 and 128.
    distinct = [f"s{i}" for i in range(129)]
    repeats = [distinct[123], distinct[124], distinct[127], distinct[128]]
    assert_sized_exactly(call(tuple(distinct + repeats)))


@pytest.mark.parametrize("n", [-65, -64, -1, 0, 63, 64, 2**62,
                               -8193, -8192, 8191, 8192])
def test_an_int_is_sized_inline_across_its_zigzag_edge(n):
    assert_sized_exactly(call(n))
    assert_sized_exactly(call([n, -n]))


@pytest.mark.parametrize("size", [127, 128])
@pytest.mark.parametrize("kind", [tuple, list])
def test_a_container_header_is_sized_inline_across_its_length_edge(kind,
                                                                   size):
    assert_sized_exactly(call(kind(range(size))))
    assert_sized_exactly(call(kind(["x"] * size)))


@pytest.mark.parametrize("kwargs", [{}, {"k": 1}])
def test_a_requests_kwargs_are_sized_exactly(kwargs):
    assert_sized_exactly(call((("coll", 3), kwargs)))


@pytest.mark.parametrize("size", [-3, 0, 5, 127, 128, 2048, 2**14])
def test_a_blob_is_sized_inline_for_any_declared_size(size):
    # below the stand-in's own bytes, at zero, negative (sent as 0), and
    # on both sides of the header's one-byte edge
    for value in ("payload-17", ("v", 300), "x" * 200):
        assert_sized_exactly(call(Blob(value, size)))
        assert_sized_exactly(call((Blob(value, size), Blob(value, size))))


class Text(str):
    """A ``str`` subclass: the encoder writes it as a string where it
    reads one (address parts, method, element fields, delta names) and
    pickles it as a payload value."""


def test_a_str_subclass_is_sized_as_the_encoder_writes_it():
    codec = CompactCodec()
    plain = call(("n0.0", "frob", "m"), "frob")
    subclassed = [
        Message(src=Address(Text("client"), "app"), dst=N00_STORE,
                method="ping", payload=("client", Text("client"))),
        call((Text("n0.0"), "n0.0", Text("zz")), Text("frob")),
        call((Element(Text("m"), "m-1", Text("n0.0")), "m", Text("m"))),
        call({**{key: default for key, default in DELTA_SCHEMA},
              "ghosts": (Text("g"), "g")}, "sync_delta!ok", is_reply=True),
    ]
    # each before and after its plain twin, on one codec: no value-keyed
    # table may hand one the other's bytes
    for msg in [plain] + subclassed + [plain] + subclassed:
        assert_sized_exactly(msg, codec)
    assert_sized_exactly(call(("m", Text("m"), "m")), codec)


def test_a_string_met_in_the_envelope_then_payload_then_element():
    codec = CompactCodec()
    # "n0.0" and "store" are first used by the envelope; "fresh" by the
    # payload, then as an element's home; "late" first as an element's
    # name, then as a bare argument
    first = call(("n0.0", "fresh", Element("m", "m-1", "fresh"),
                  Element("late", "late-x", "n0.0", replicas=("store",)),
                  "late", "fresh"))
    assert_miss_and_hit_are_exact(codec, first)
    # the same strings in the other order, now all in the table
    again = call((Element("fresh", "fresh-2", "late"), "late", "store",
                  Element("n0.0", "n0.0-0", "m", replicas=("fresh",))))
    assert_miss_and_hit_are_exact(codec, again)
    assert {"n0.0", "store", "fresh", "late", "m"} <= set(codec._first_uses)


def test_size_walk_refuses_what_the_encoder_refuses():
    delta = {key: default for key, default in DELTA_SCHEMA}
    negative = call({**delta, "version": -1})
    for refuse in (CompactCodec().encode_message, CompactCodec().message_size):
        with pytest.raises(ValueError):
            refuse(negative)


# -- real traffic -------------------------------------------------------------

def captured(scenario, drive):
    """Every message ``drive`` sends, as ``perf/workloads.py`` records
    them: ``send`` wrapped on this world's transport instance."""
    transport = scenario.net.transport
    send = transport.send
    corpus = []

    def recording_send(msg):
        corpus.append(msg)
        return send(msg)

    transport.send = recording_send
    try:
        drive()
    finally:
        del transport.send
    return corpus


def e25_style_drain():
    scenario = build_scenario(
        ScenarioSpec(n_clusters=4, cluster_size=3, n_members=32,
                     heavy_tail=False, replicas=1, placement_skew=0.2,
                     member_size=2048), seed=0)
    ws = DynamicSet(scenario.world, scenario.client, scenario.coll_id,
                    fetch_window=8, fetch_batch=4)
    return scenario, lambda: drain_all(scenario.kernel, ws)


def sharded_write_run():
    scenario = build_scenario(
        ScenarioSpec(n_clusters=4, cluster_size=3, n_members=0, shards=4,
                     replicas=1, recovery_enabled=True), seed=0)
    plan = [AddSpec(name=f"m{i:04d}", value=f"payload-{i}",
                    home=f"n{i % 4}.{i % 3}", size=2048,
                    replicas=(f"n{(i + 1) % 4}.{i % 3}",))
            for i in range(48)]
    repo = scenario.repo()

    def drive():
        added = scenario.kernel.run_process(repo.add_many(
            scenario.coll_id, plan, window=8, batch_size=16))
        scenario.kernel.run_process(repo.remove_many(
            scenario.coll_id, added[::2], window=8, batch_size=16))

    return scenario, drive


@pytest.mark.parametrize("run", [e25_style_drain, sharded_write_run])
def test_every_message_of_a_real_run_is_sized_exactly(run):
    scenario, drive = run()
    corpus = captured(scenario, drive)
    assert len(corpus) > 50
    assert {m.method for m in corpus} >= (
        {"list_members!ok", "get_objects!ok", "sync_delta"}
        if run is e25_style_drain else {"add_members", "remove_members!ok"})
    oracle = CompactCodec()
    for msg in corpus:
        assert_sized_exactly(msg)
        # and what the transport stamped is the canonical-id encoding
        canonical = replace(msg, msg_id=1,
                            reply_to=None if msg.reply_to is None else 1)
        assert msg.wire_size == len(oracle.encode_message(canonical))


# -- measure ------------------------------------------------------------------

@pytest.mark.parametrize("codec", [CompactCodec(), NaiveCodec()],
                         ids=lambda c: c.name)
def test_measure_does_not_depend_on_envelope_id_magnitude(codec):
    wire = WireFormat(codec=codec)
    payload = (("coll", Element("m", "m-1", "n1.0")), {})
    for reply_ids in ((None, None), (1, 2**40)):
        small, large = (
            call(payload, "add_member", msg_id=msg_id, reply_to=reply_to)
            for msg_id, reply_to in zip((1, 2**40), reply_ids))
        assert wire.measure(small) == wire.measure(large) \
            == codec.message_size(small)
        assert codec.message_size(large) > codec.message_size(small)


# -- the element memo ---------------------------------------------------------

def test_naive_sizes_do_not_move_once_compact_has_sized_the_elements():
    members = tuple(Element(f"member-{i}", f"member-{i}-{i}", f"n{i % 4}.0",
                            replicas=("n1.1",)) for i in range(8))
    reply = call(members, "list_members!ok")
    naive = NaiveCodec()
    before = naive.message_size(reply)
    compact = CompactCodec()
    compact.message_size(reply)
    assert len(compact._element_sizes) == len(members)
    # the memo is the codec's: pickle sees the same four fields as ever
    assert all(set(vars(m)) == {f.name for f in fields(Element)}
               for m in members)
    assert naive.message_size(reply) == before


def test_memo_tells_equal_elements_with_different_replicas_apart():
    # Element equality ignores replicas; their bytes do not
    plain = Element("m", "m-1", "n0.0")
    placed = Element("m", "m-1", "n0.0", replicas=("n1.0", "n2.0"))
    assert plain == placed
    codec = CompactCodec()
    assert codec.payload_size(placed) > codec.payload_size(plain)
    assert_sized_exactly(call((plain, placed, plain)), codec)


def test_element_memo_is_bounded_and_an_evicted_element_still_sizes():
    # every element alive, so no id is handed out twice
    pool = [Element(f"m{i}", f"m{i}-{i}", NODES[i % len(NODES)])
            for i in range(_ELEMENT_ENTRIES + 1)]
    codec = CompactCodec()
    first = call(pool[0])
    assert_miss_and_hit_are_exact(codec, first)
    for element in pool[1:]:
        codec.payload_size(element)
    assert len(codec._element_sizes) == _ELEMENT_ENTRIES
    assert id(pool[0]) not in codec._element_sizes      # pushed out …
    assert_miss_and_hit_are_exact(codec, first)         # … and re-sent
    assert codec._element_sizes[id(pool[0])][0] is pool[0]
    assert len(codec._element_sizes) == _ELEMENT_ENTRIES


def test_first_use_table_is_bounded_and_an_evicted_string_still_sizes():
    codec = CompactCodec()
    first = call(("s0", "s0"))
    assert_miss_and_hit_are_exact(codec, first)
    for i in range(1, _FIRST_USE_ENTRIES + 1):
        codec.payload_size(f"s{i}")
    assert len(codec._first_uses) == _FIRST_USE_ENTRIES
    assert "s0" not in codec._first_uses                # pushed out …
    assert_miss_and_hit_are_exact(codec, first)         # … and re-sent
    assert "s0" in codec._first_uses
    assert len(codec._first_uses) == _FIRST_USE_ENTRIES


def test_sized_elements_die_with_their_world():
    kernel, net, world, members = standard_world(members=6)
    drain_all(kernel, DynamicSet(world, CLIENT, "coll"))
    codec = net.transport.wire.codec
    assert codec._element_sizes                         # they were sized
    assert codec._envelopes                             # and so were these
    # an envelope entry is its bytes and the strings it interned: no
    # entry holds an Address
    for key, (size, interns) in codec._envelopes.items():
        assert all(type(part) is str for part in key[:5])
        assert type(size) is int
        assert all(type(s) is str and type(i) is int
                   for s, i in interns.items())
    probe = weakref.ref(members[0])
    del kernel, net, world, members, codec
    gc.collect()
    assert probe() is None


# -- the envelope memo --------------------------------------------------------

def test_envelope_memo_tells_a_reply_from_a_request_with_the_same_method():
    # "get_object!ok" as a reply is method 0 plus the ok bit; as a
    # request it is an unknown method, spelled out
    codec = CompactCodec()
    reply, request = (call(Blob("v", 12), "get_object!ok", is_reply=flag,
                           reply_to=4) for flag in (True, False))
    for msg in (reply, request, reply, request):
        assert codec.message_size(msg) == len(codec.encode_message(msg))
    assert codec.message_size(request) > codec.message_size(reply)
    assert len(codec._envelopes) == 2


def test_envelope_memo_keeps_each_method_of_one_address_pair_apart():
    # a one-byte method id, another id, and two names spelled out — one
    # of them a string the envelope has already interned
    codec = CompactCodec()
    for method in ("get_object", "ping", "frobnicate", "n0.0") * 2:
        msg = call(("n0.0",), method)
        assert codec.message_size(msg) == len(codec.encode_message(msg))
    assert len(codec._envelopes) == 4


def test_envelope_memo_keeps_priority_and_ids_per_message():
    codec = CompactCodec()
    for priority, msg_id, reply_to in ((5, 1, None), (300, 2**40, 7),
                                       (5, 3, 2**20), (0, 1, None)):
        msg = call(("coll", "n0.0"), "list_members", priority=priority,
                   msg_id=msg_id, reply_to=reply_to)
        assert codec.message_size(msg) == len(codec.encode_message(msg))
    assert len(codec._envelopes) == 1


def test_envelope_memo_is_by_value_and_holds_no_address():
    codec = CompactCodec()
    twin = Address("client", "app")          # equal, not the same object
    for src in (CLIENT_APP, twin, CLIENT_APP):
        msg = Message(src=src, dst=N00_STORE, method="ping",
                      payload=("client", "n0.0"))
        assert_miss_and_hit_are_exact(codec, msg)
    assert list(codec._envelopes) == [
        ("client", "app", "n0.0", "store", "ping", False)]
    (entry,) = codec._envelopes.values()
    assert not any(isinstance(part, Address) for part in entry)


def test_envelope_memo_is_bounded_and_an_evicted_shape_still_sizes():
    codec = CompactCodec()
    kept = [Address(f"node-{i}", "store") for i in range(2 * _ENVELOPE_ENTRIES)]
    first = Message(src=kept[0], dst=N00_STORE, method="put_object",
                    payload=(kept[0].node, "store"))
    assert_miss_and_hit_are_exact(codec, first)
    for src in kept[1:]:
        msg = Message(src=src, dst=N00_STORE, method="put_object",
                      payload=(src.node, "store"))
        assert codec.message_size(msg) == len(codec.encode_message(msg))
        assert len(codec._envelopes) <= _ENVELOPE_ENTRIES
    assert len(codec._envelopes) == _ENVELOPE_ENTRIES
    assert all(key[0] != "node-0" for key in codec._envelopes)
    assert_miss_and_hit_are_exact(codec, first)         # pushed out, re-sent
    assert len(codec._envelopes) == _ENVELOPE_ENTRIES


# -- the listing memo ---------------------------------------------------------

def listing_reply(members, *, envelope_interns_homes: bool, version=7):
    """A ``list_members`` reply carrying ``members`` as the server does.
    The envelope's two node names are strings of the message before the
    payload is reached: drawn from the elements' own home/replica pool
    they are pre-interned when an element names them, and ``zz-*`` never
    is."""
    src, dst = ((HOMES_SERVER, HOMES_CLIENT) if envelope_interns_homes
                else (ZZ_SERVER, ZZ_CLIENT))
    return Message(src=src, dst=dst, method="list_members!ok",
                   payload=(version, members), is_reply=True, reply_to=3)


HOMES_SERVER, HOMES_CLIENT = Address("n0.0", "store"), Address("ノード", "client")
ZZ_SERVER, ZZ_CLIENT = Address("zz-server", "store"), Address("zz-client",
                                                              "client")


def assert_miss_and_hit_are_exact(codec, msg):
    encoded = len(codec.encode_message(msg))
    assert codec.message_size(msg) == encoded          # the miss …
    assert codec.message_size(msg) == encoded          # … and the hit


@settings(max_examples=150)
@given(st.lists(elements(), min_size=1, max_size=12).map(tuple),
       st.booleans())
def test_listing_entry_is_exact_on_miss_and_on_hit(members, interned):
    codec = CompactCodec()
    msg = listing_reply(members, envelope_interns_homes=interned)
    assert_miss_and_hit_are_exact(codec, msg)
    assert codec._listing_sizes[id(members)][0] is members
    # the same tuple behind the other envelope: the entry is reused
    # against a different set of already-interned strings, and each
    # table gets its own result
    other = listing_reply(members, envelope_interns_homes=not interned)
    assert_miss_and_hit_are_exact(codec, other)
    assert len(codec._listing_sizes) == 1
    assert len(codec._listing_sizes[id(members)][3]) == 2
    for again in (msg, other, msg):                     # hits under each
        assert codec.message_size(again) == len(codec.encode_message(again))
    assert_sized_exactly(msg, WARM)


def test_a_string_after_a_remembered_listing_refers_back_into_it():
    members = tuple(Element(f"m{i}", f"m{i}-{i}", NODES[i % 3],
                            replicas=("n1.2",)) for i in range(6))
    codec = CompactCodec()
    for interned in (False, True, False, True):
        # the reply's members, then strings the listing interned (a name,
        # a home, a replica), one it did not, and that one again
        msg = listing_reply((members, "m4", "n0.1", "n1.2", "fresh", "fresh"),
                            envelope_interns_homes=interned)
        assert codec.message_size(msg) == len(codec.encode_message(msg))
    assert len(codec._listing_sizes[id(members)][3]) == 2


def test_the_two_byte_backref_edge_is_crossed_right_after_a_listing_hit():
    # four envelope strings, then 122 names and one home: the listing
    # leaves 127 strings interned, so the next new string is index 127
    # and the one after it the first index that takes two bytes
    members = tuple(Element(f"m{i}", f"m{i}-{i}", "zz-home")
                    for i in range(122))
    payload = (members, "after-0", "after-1", "after-0", "after-1", "m121",
               "zz-home")
    codec = CompactCodec()
    msg = listing_reply(payload, envelope_interns_homes=False)
    assert_miss_and_hit_are_exact(codec, msg)
    context = next(iter(codec._listing_sizes[id(members)][3]))
    assert len(context) == 4
    assert len(codec._listing_sizes[id(members)][3][context][1]) == 123


def test_listing_results_per_table_are_bounded_and_an_evicted_one_sizes():
    members = tuple(Element(f"m{i}", f"m{i}-{i}", NODES[i % len(NODES)])
                    for i in range(8))
    servers = [Address(f"server-{i}", "store")
               for i in range(2 * _LISTING_CONTEXTS)]
    replies = [Message(src=server, dst=HOMES_CLIENT, method="list_members!ok",
                       payload=(1, members), is_reply=True, reply_to=3)
               for server in servers]
    codec = CompactCodec()
    for msg in replies:
        assert_miss_and_hit_are_exact(codec, msg)
        assert len(codec._listing_sizes[id(members)][3]) <= _LISTING_CONTEXTS
    contexts = codec._listing_sizes[id(members)][3]
    assert len(contexts) == _LISTING_CONTEXTS
    assert all(context[0] != "server-0" for context in contexts)
    assert_miss_and_hit_are_exact(codec, replies[0])    # pushed out, re-sent
    assert any(context[0] == "server-0" for context in contexts)
    assert len(contexts) == _LISTING_CONTEXTS


def test_listing_entry_crosses_the_two_byte_backref_edge():
    # 70 elements x (name, home) = 140 distinct strings, then every one
    # of them again: back-references on both sides of index 128
    members = tuple(Element(f"member-{i}", f"member-{i}-{i}", f"host-{i}")
                    for i in range(70))
    codec = CompactCodec()
    msg = listing_reply(members + members, envelope_interns_homes=False)
    assert_miss_and_hit_are_exact(codec, msg)
    assert len(codec._listing_sizes[id(msg.payload[1])][2]) == 280


def test_listing_memo_is_bounded_and_an_evicted_listing_still_sizes():
    pool = [Element(f"m{i}", f"m{i}-{i}", NODES[i % len(NODES)],
                    replicas=(NODES[(i + 1) % len(NODES)],))
            for i in range(40)]
    codec = CompactCodec()
    first = tuple(pool)
    first_msg = listing_reply(first, envelope_interns_homes=True)
    assert_miss_and_hit_are_exact(codec, first_msg)
    kept = []                       # alive, so no id is handed out twice
    for i in range(1000):
        listing = tuple(pool[i % 40:] + pool[:i % 40])[:1 + i % 39]
        kept.append(listing)
        msg = listing_reply(listing, envelope_interns_homes=bool(i % 2))
        assert codec.message_size(msg) == len(codec.encode_message(msg))
        assert len(codec._listing_sizes) <= _LISTING_ENTRIES
    assert len(codec._listing_sizes) == _LISTING_ENTRIES
    assert id(first) not in codec._listing_sizes        # pushed out …
    assert_miss_and_hit_are_exact(codec, first_msg)     # … and re-sent
    assert codec._listing_sizes[id(first)][0] is first
    assert len(codec._listing_sizes) == _LISTING_ENTRIES


@pytest.mark.parametrize("spoil", [
    lambda members: list(members),                        # mutable
    lambda members: members[:2] + ("not-an-element",) + members[2:],
    lambda members: members[:2] + (Blob(members[2], 4096),) + members[3:],
    lambda members: (members[0], 3, members[1]),
    lambda members: (),
], ids=["list", "str-item", "blob-item", "int-item", "empty"])
def test_only_a_tuple_of_elements_gets_a_listing_entry(spoil):
    members = tuple(Element(f"m{i}", f"m{i}-{i}", "n0.0", replicas=("n1.2",))
                    for i in range(5))
    codec = CompactCodec()
    msg = listing_reply(spoil(members), envelope_interns_homes=True)
    assert_miss_and_hit_are_exact(codec, msg)
    assert codec._listing_sizes == {}
    assert_sized_exactly(msg, WARM)


def test_a_list_is_sized_as_it_stands_each_time():
    members = [Element(f"m{i}", f"m{i}-{i}", "n0.0") for i in range(4)]
    codec = CompactCodec()
    msg = listing_reply(members, envelope_interns_homes=False)
    assert_miss_and_hit_are_exact(codec, msg)
    members.append(Element("late", "late-9", "n1.2"))    # same id, new value
    assert_miss_and_hit_are_exact(codec, msg)


@settings(max_examples=100)
@given(deltas(elements()))
def test_sync_delta_elements_inside_triples_still_size_exactly(delta):
    codec = CompactCodec()
    msg = call(delta, "sync_delta!ok", is_reply=True, reply_to=9)
    assert_miss_and_hit_are_exact(codec, msg)
    # (name, element, version) and (name, version, element) start with a
    # string: neither is a listing
    assert codec._listing_sizes == {}
    assert_sized_exactly(msg, WARM)


# -- the send path ------------------------------------------------------------

def test_send_path_never_encodes(monkeypatch):
    """``list_members``, ``get_object(s)`` and ``add_member`` traffic is
    priced with the encoder disabled.  So are the two payload kinds one
    might expect to need it: failure replies (sized from their schema)
    and pickle-fallback payloads (the one place sizing still serialises
    — with ``pickle.dumps`` itself, not through the encoder)."""

    def encoder_called(*_args, **_kwargs):
        raise AssertionError("the encoder ran on the sizing path")

    monkeypatch.setattr(CompactCodec, "encode_message", encoder_called)
    monkeypatch.setattr(CompactCodec, "_encode_value", encoder_called)
    scenario = build_scenario(
        ScenarioSpec(n_clusters=2, cluster_size=2, n_members=8), seed=7)
    spec = PopulationSpec(
        behaviors=default_behaviors(scenario),
        stages=(Stage(duration=5.0, arrival_rate=20.0),))
    (stage,) = PopulationEngine(scenario, spec).run()
    assert stage.completions == stage.arrivals > 0
    metrics = scenario.kernel.obs.metrics
    for behavior in ("reader", "scanner", "writer"):
        assert metrics.value(f"population.sessions.{behavior}") > 0
    assert metrics.value("net.bytes_sent") > 0

    codec = CompactCodec()
    for payload in (TimeoutFailure("late"),
                    ServerBusyFailure("busy", retry_after=0.25),
                    SimulationError("no RPC method 'frobnicate'"),
                    Odd(5), KeyError("untagged failure class")):
        assert codec.message_size(call(payload, "get_object!error")) > 0
