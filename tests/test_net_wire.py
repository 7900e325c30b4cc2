"""The wire codecs: lossless round-trips and honest size accounting.

Satellite of E25: every RPC payload shape and every failure type must
encode -> decode losslessly under the compact codec — varint
boundaries, empty deltas, unicode names, tombstoned members and all —
and the naive baseline must measure what it would really pickle.
"""

import pytest

import repro.errors as errors
from repro.errors import (
    ServerBusyFailure,
    SpecViolation,
    TimeoutFailure,
    WrongShardFailure,
)
from repro.net.address import Address
from repro.net.message import Message
from repro.net.wire import (
    DELTA_SCHEMA,
    EXCEPTION_TYPES,
    METHODS,
    Blob,
    CompactCodec,
    NaiveCodec,
    codec_by_name,
    decode_uvarint,
    encode_uvarint,
    method_family,
    unwrap,
)
from repro.store.elements import Element

from helpers import assert_sized_exactly

COMPACT = CompactCodec()
NAIVE = NaiveCodec()
SRC = Address("client", "app")
DST = Address("n0.0", "store")


class Odd:
    """A schema-less value only the pickle fallback can carry."""

    def __init__(self, x):
        self.x = x

    def __eq__(self, other):
        return isinstance(other, Odd) and other.x == self.x


def call(payload, method="get_objects"):
    msg = Message(src=SRC, dst=DST, method=method, payload=payload)
    # every message this module builds is also a sizing case: the
    # size-only walk must agree with the encoder, memo cold and warm
    assert_sized_exactly(msg)
    assert_sized_exactly(msg, COMPACT)
    return msg


def roundtrip(msg: Message) -> Message:
    assert_sized_exactly(msg, COMPACT)        # replies bypass call()
    return COMPACT.decode_message(COMPACT.encode_message(msg))


def assert_roundtrip(payload, method="get_objects"):
    msg = call(payload, method)
    back = roundtrip(msg)
    assert back.payload == payload
    assert back.method == msg.method
    assert back.msg_id == msg.msg_id
    assert (back.src, back.dst) == (msg.src, msg.dst)
    return back


# -- varints ----------------------------------------------------------------

@pytest.mark.parametrize("n", [0, 1, 2**7 - 1, 2**7, 2**14 - 1, 2**14,
                               2**21, 2**32 - 1, 2**32, 2**63])
def test_uvarint_boundaries(n):
    out = bytearray()
    encode_uvarint(n, out)
    back, pos = decode_uvarint(bytes(out), 0)
    assert back == n and pos == len(out)


@pytest.mark.parametrize("n", [0, -1, 1, 127, -128, 2**14, -2**14,
                               2**32, -2**32, 2**40, -2**40])
def test_signed_ints_roundtrip(n):
    assert_roundtrip(((n,), {}))


# -- payload leaves and containers ------------------------------------------

@pytest.mark.parametrize("value", [
    None, True, False, 0.0, -1.5, 3.141592653589793,
    "", "plain", "名前-ünïcode-☃", b"", b"\x00\xff raw",
    (), [], {}, set(), frozenset(),
    ("a", 1, None), ["nested", ["deep", {"k": (1, 2)}]],
    {"key": "value", 7: (True, False)},
    {"x", "y", "z"}, frozenset({1, 2, 3}),
])
def test_values_roundtrip(value):
    assert_roundtrip(((value,), {"kw": value}))


def test_set_encoding_is_deterministic():
    msg1 = call((({"c", "a", "b"},), {}))
    msg2 = Message(src=SRC, dst=DST, method="get_objects",
                   payload=(({"b", "c", "a"},), {}), msg_id=msg1.msg_id)
    assert COMPACT.encode_message(msg1) == COMPACT.encode_message(msg2)


def test_string_interning_pays():
    # the same long string repeated should cost far less than twice
    one = COMPACT.payload_size(("collection-name-aaaaaaaa",))
    two = COMPACT.payload_size(("collection-name-aaaaaaaa",) * 2)
    assert two < one + 8


# -- domain shapes ----------------------------------------------------------

def test_elements_roundtrip():
    fresh = Element("member-0", "member-0-17", "n1.2")
    weird = Element("名前", "oid:not/derived", "n0.0",
                    replicas=("n2.0", "n3.1"))
    back = assert_roundtrip(((fresh, weird), {}), method="add_members")
    got_fresh, got_weird = back.payload[0]
    assert got_fresh == fresh and got_fresh.oid == fresh.oid
    assert got_weird == weird and got_weird.replicas == weird.replicas


def test_tombstoned_member_in_delta_roundtrips():
    # the real sync_delta reply shape: ghosts are member names,
    # adds are (name, element, version), removes (name, version,
    # element) — the tombstone keeps the element for later purging
    member = Element("tombstoned", "tombstoned-3", "n1.0")
    fresh = Element("名前", "名前-4", "n2.1")
    delta = {"version": 9, "sealed": True, "ghosts": ("tombstoned",),
             "adds": (("名前", fresh, 8),),
             "removes": (("tombstoned", 9, member),), "epoch": 2,
             "active_iterations": (41,)}
    back = assert_roundtrip(delta, method="sync_delta!ok")
    assert back.payload == delta
    assert back.payload["removes"][0][2] == member


def test_delta_keyed_dict_with_foreign_shape_still_roundtrips():
    # a payload dict that merely shares the seven delta key names must
    # not crash the field-diff fast path — it takes the generic encoding
    impostor = {"version": "not-an-int", "sealed": 3, "ghosts": 7,
                "adds": None, "removes": "x", "epoch": (),
                "active_iterations": {}}
    back = assert_roundtrip(impostor)
    assert back.payload == impostor


def test_empty_delta_is_tiny():
    empty = {name: default for name, default in DELTA_SCHEMA}
    back = assert_roundtrip(empty, method="sync_delta!ok")
    assert back.payload == empty
    # all fields at schema defaults => presence bitfield only
    assert COMPACT.payload_size(empty) <= 3


def test_blob_roundtrips_and_declares_size():
    blob = Blob("stand-in", 2048)
    back = assert_roundtrip(((blob,), {}), method="put_object")
    assert back.payload[0][0] == blob
    assert unwrap(back.payload[0][0]) == "stand-in"
    # the declared size is what lands on the wire, not the stand-in's
    assert COMPACT.payload_size(blob) >= 2048
    assert NAIVE.message_size(call(blob)) >= 2048


@pytest.mark.parametrize("exc_type", EXCEPTION_TYPES)
def test_every_failure_type_roundtrips(exc_type):
    msg = call(exc_type("boom: ☃"), method="get_object!error")
    back = roundtrip(msg)
    assert type(back.payload) is exc_type
    assert str(back.payload) == "boom: ☃"


def test_failure_extras_roundtrip():
    for exc in (ServerBusyFailure("busy", retry_after=0.125),
                WrongShardFailure("moved", owner="n2.0"),
                SpecViolation("bad", invocation_index=7),
                TimeoutFailure("slow")):
        back = roundtrip(call(exc, method="get_object!error"))
        assert type(back.payload) is type(exc)
        for attr in ("retry_after", "owner", "invocation_index"):
            assert getattr(back.payload, attr, None) == \
                getattr(exc, attr, None)


def test_exception_types_covers_errors_module():
    # every exception the system can answer over the wire must have a
    # stable tag; this catches additions to errors.py that forget to
    # extend EXCEPTION_TYPES.  ProcessKilled is kernel-internal (it is
    # delivered into a killed process, never sent as a reply).
    wired = set(EXCEPTION_TYPES)
    internal = {errors.ProcessKilled}
    for name in dir(errors):
        obj = getattr(errors, name)
        if isinstance(obj, type) and issubclass(obj, Exception) \
                and obj.__module__ == "repro.errors" \
                and obj not in internal:
            assert obj in wired, name


# -- envelopes --------------------------------------------------------------

def test_reply_envelopes_roundtrip():
    request = call((("coll",), {}), method="list_members")
    for error in (False, True):
        reply = request.reply("payload" if not error
                              else TimeoutFailure("late"), error=error)
        back = roundtrip(reply)
        assert back.is_reply and back.reply_to == request.msg_id
        assert back.method == reply.method


def test_unknown_method_falls_back_to_string():
    assert "frobnicate" not in METHODS
    back = assert_roundtrip(((1,), {}), method="frobnicate")
    assert back.method == "frobnicate"
    assert method_family("frobnicate") == "other"


def test_pickle_fallback_for_schema_less_values():
    back = assert_roundtrip(((Odd(5),), {}))
    assert back.payload[0][0] == Odd(5)


# -- size accounting --------------------------------------------------------

def test_compact_message_size_is_encoded_length():
    msg = call((("coll", Element("m", "m-1", "n1.0")), {}),
               method="add_member")
    assert COMPACT.message_size(msg) == len(COMPACT.encode_message(msg))


def test_compact_beats_naive_on_metadata():
    members = tuple(Element(f"member-{i:04d}", f"member-{i:04d}-{i}",
                            f"n{i % 4}.{i % 3}") for i in range(40))
    reply = call(members, method="list_members!ok")
    request = call((("collection",), {}), method="list_members")
    for msg in (reply, request):
        assert NAIVE.message_size(msg) >= 3 * COMPACT.message_size(msg)


def test_naive_roundtrips_too():
    msg = call((("coll", Element("m", "m-1", "n1.0")), {}),
               method="add_member")
    back = NAIVE.decode_message(NAIVE.encode_message(msg))
    assert back.payload == msg.payload and back.method == msg.method


def test_codec_by_name():
    assert codec_by_name("compact").name == "compact"
    assert codec_by_name("naive").name == "naive"
    with pytest.raises(ValueError):
        codec_by_name("gzip")


def test_method_families():
    assert method_family("get_objects") == "object"
    assert method_family("get_objects!ok") == "object"
    assert method_family("list_members!error") == "membership"
    assert method_family("sync_delta") == "sync"
    assert method_family("freeze_range") == "shard"
    assert method_family("acquire") == "lock"
    assert method_family("ping") == "control"
