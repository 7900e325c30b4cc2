"""The wire format: compact binary serialization and size accounting.

Until this module landed, RPCs moved Python objects over latency-only
links, so every batching win was measured purely in round-trips.  The
paper's setting — a wide-area, possibly-mobile environment — makes the
cost of *bytes* a first-class concern, and this module gives every
message an honest size:

:class:`CompactCodec`
    A tag-dispatched binary encoding: varint integers (LEB128,
    zigzagged when signed), length-prefixed UTF-8 strings with
    per-message interning (a repeated host name costs two bytes the
    second time), bitfield-packed flags, and schema-aware encoders for
    the hot RPC payload types.  Membership deltas (``sync_delta``
    replies) and elements are encoded as *field-diffs against a schema
    default*: a flags bitfield marks which fields differ from the empty
    delta, and only those go on the wire — the flag-serialiser idiom.
    Every failure type the servers can answer with has a one-byte tag;
    anything the schema does not know falls back to a length-prefixed
    pickle so encoding stays total.  Sizing never encodes: a size-only
    walk of the same grammar sums what the encoder would append, which
    is all ``Transport.send`` needs of the codec.  What depends only on
    a message's shape is sized once per shape: an envelope once per
    address pair, method and direction, a member listing once per
    intern table it follows; only the rest is walked per message.

:class:`NaiveCodec`
    The honesty baseline: a pickle-size estimator standing in for
    "just serialize the Python objects".  E25 gates the compact codec
    against it.

:class:`Blob`
    A payload leaf carrying a data object's *declared* body size.  The
    simulation stores tiny stand-in values ("payload-17") for objects
    whose modeled size is kilobytes; object servers wrap replies in a
    ``Blob`` so the wire charges the declared body, and both codecs
    charge it identically — codecs compete on *structure*, bodies are
    opaque.  This is also what retires the old double-accounting
    hazard: ``obj.size / bandwidth`` used to be charged as server
    service time, now the bytes travel (and queue) on the links.

:class:`WireFormat`
    The per-transport bundle: which codec measures messages, and the
    sender-side serialisation rate (bytes/second of CPU charged before
    the first bit hits the first link).

Bandwidth presets (``lan`` / ``wan`` / ``mobile``) give scenarios a
one-word dial for constrained links (``ScenarioSpec.bandwidth_preset``).
"""

from __future__ import annotations

import pickle
import struct
from dataclasses import dataclass, field, replace
from itertools import count
from typing import Any, Optional

from ..errors import (
    CircuitOpenFailure,
    ConstraintViolation,
    DisconnectedError,
    FailureException,
    FileSystemError,
    IteratorProtocolError,
    LinkDownFailure,
    LockUnavailableFailure,
    MutationNotAllowed,
    NoSuchCollectionError,
    NoSuchObjectError,
    NoSuchPathError,
    NodeCrashFailure,
    NotADirectoryError_,
    PartitionFailure,
    ReproError,
    ServerBusyFailure,
    SimulationError,
    SpecViolation,
    SpecificationError,
    StoreError,
    TimeoutFailure,
    UnreachableObjectFailure,
    WrongShardFailure,
)
from .address import Address
from .executor import PRIORITY_NORMAL
from .message import Message

__all__ = [
    "Blob",
    "unwrap",
    "CompactCodec",
    "NaiveCodec",
    "WireFormat",
    "codec_by_name",
    "method_family",
    "BandwidthPreset",
    "BANDWIDTH_PRESETS",
    "encode_uvarint",
    "decode_uvarint",
]


# ---------------------------------------------------------------------------
# payload leaves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Blob:
    """A data-object body: a stand-in value plus its declared byte size.

    Object servers wrap fetched values in a ``Blob`` so the reply's
    wire size reflects the object's modeled size, not the length of the
    simulation's tiny stand-in string; writers wrap put values the same
    way.  ``unwrap`` recovers the value at the consuming end.
    """

    value: Any
    size: int = 0


def unwrap(value: Any) -> Any:
    """The value inside a :class:`Blob` (identity for anything else)."""
    return value.value if isinstance(value, Blob) else value


# ---------------------------------------------------------------------------
# varints
# ---------------------------------------------------------------------------

def encode_uvarint(n: int, out: bytearray) -> None:
    """LEB128: 7 bits per byte, high bit = continuation."""
    if n < 0:
        raise ValueError(f"uvarint cannot encode negative {n}")
    while True:
        b = n & 0x7F
        n >>= 7
        if n:
            out.append(b | 0x80)
        else:
            out.append(b)
            return


def _uvarint_len(n: int) -> int:
    """How many bytes :func:`encode_uvarint` appends for ``n``."""
    if n < 128:
        if n < 0:
            raise ValueError(f"uvarint cannot encode negative {n}")
        return 1
    return (n.bit_length() + 6) // 7


def decode_uvarint(data: bytes, pos: int) -> tuple[int, int]:
    """Returns (value, next position)."""
    shift = 0
    value = 0
    while True:
        b = data[pos]
        pos += 1
        value |= (b & 0x7F) << shift
        if not b & 0x80:
            return value, pos
        shift += 7


def _zigzag(n: int) -> int:
    return (n << 1) ^ (n >> 63) if -(1 << 62) <= n < (1 << 62) \
        else (n << 1) ^ (n >> (n.bit_length() + 1)) if n < 0 else n << 1


def _unzigzag(n: int) -> int:
    return (n >> 1) ^ -(n & 1)


# ---------------------------------------------------------------------------
# schema tables
# ---------------------------------------------------------------------------

#: Known RPC methods get a one-byte id instead of a string.  Appending
#: is safe; reordering is not (the id *is* the wire representation).
METHODS: tuple[str, ...] = (
    "get_object", "get_object_replica", "get_objects", "get_objects_replica",
    "put_object", "put_objects", "delete_object", "has_object",
    "list_members", "list_members_stale", "collection_version",
    "add_member", "add_members", "remove_member", "remove_members",
    "seal_collection", "begin_iteration", "end_iteration",
    "sync_delta", "absorb_handoff", "pending_intents",
    "freeze_range", "unfreeze_range", "drop_range",
    "acquire", "release", "ping",
)
_METHOD_IDS = {name: i for i, name in enumerate(METHODS)}

#: method → metric family for the per-family byte counters.
_FAMILIES: dict[str, str] = {}
for _m in ("get_object", "get_object_replica", "get_objects",
           "get_objects_replica", "put_object", "put_objects",
           "delete_object", "has_object"):
    _FAMILIES[_m] = "object"
for _m in ("list_members", "list_members_stale", "collection_version",
           "add_member", "add_members", "remove_member", "remove_members",
           "seal_collection", "begin_iteration", "end_iteration"):
    _FAMILIES[_m] = "membership"
for _m in ("sync_delta", "absorb_handoff", "pending_intents"):
    _FAMILIES[_m] = "sync"
for _m in ("freeze_range", "unfreeze_range", "drop_range"):
    _FAMILIES[_m] = "shard"
for _m in ("acquire", "release"):
    _FAMILIES[_m] = "lock"
_FAMILIES["ping"] = "control"


def method_family(method: str) -> str:
    """The metric family a method's bytes are accounted under.

    Replies (``method!ok`` / ``method!error``) count under the family
    of the request they answer.
    """
    base = method.split("!", 1)[0]
    return _FAMILIES.get(base, "other")


#: Failure/error classes answered over the wire, one tag each.
#: Appending is safe; reordering is not.
EXCEPTION_TYPES: tuple[type, ...] = (
    FailureException, TimeoutFailure, NodeCrashFailure, LinkDownFailure,
    PartitionFailure, UnreachableObjectFailure, DisconnectedError,
    LockUnavailableFailure, CircuitOpenFailure, ServerBusyFailure,
    WrongShardFailure, SimulationError, StoreError, NoSuchObjectError,
    NoSuchCollectionError, MutationNotAllowed, SpecViolation,
    IteratorProtocolError, ReproError, SpecificationError,
    ConstraintViolation, FileSystemError, NoSuchPathError,
    NotADirectoryError_,
)
_EXC_IDS = {cls: i for i, cls in enumerate(EXCEPTION_TYPES)}

#: ``sync_delta`` reply schema: field order is the bitfield order, the
#: values are the schema defaults a field-diff is taken against.
DELTA_SCHEMA: tuple[tuple[str, Any], ...] = (
    ("version", 0),
    ("sealed", False),
    ("ghosts", ()),
    ("adds", ()),
    ("removes", ()),
    ("epoch", 0),
    ("active_iterations", ()),
)
_DELTA_KEYS = frozenset(k for k, _ in DELTA_SCHEMA)


def _delta_shaped(d: dict) -> bool:
    """Whether a delta-keyed dict really has the ``sync_delta`` shape.

    Guards the field-diff fast path against an arbitrary payload dict
    that merely shares the seven key names; anything else takes the
    generic dict encoding.
    """
    try:
        return (isinstance(d["version"], int)
                and isinstance(d["epoch"], int)
                and isinstance(d["sealed"], bool)
                and all(isinstance(g, str) for g in d["ghosts"])
                and all(isinstance(t, tuple) and len(t) == 3
                        and isinstance(t[0], str) and isinstance(t[2], int)
                        for t in d["adds"])
                and all(isinstance(t, tuple) and len(t) == 3
                        and isinstance(t[0], str) and isinstance(t[1], int)
                        for t in d["removes"]))
    except TypeError:
        return False

# value tags
_T_NONE = 0
_T_TRUE = 1
_T_FALSE = 2
_T_INT = 3
_T_FLOAT = 4
_T_STR = 5
_T_REF = 6            # backref into the per-message string table
_T_BYTES = 7
_T_TUPLE = 8
_T_LIST = 9
_T_DICT = 10
_T_SET = 11
_T_FROZENSET = 12
_T_ELEMENT = 13
_T_BLOB = 14
_T_DELTA = 15
_T_FAILURE = 16
_T_PICKLE = 17        # schema-less fallback (rings, shard maps, ...)

# message header flag bits
_F_IS_REPLY = 1
_F_HAS_REPLY_TO = 2
_F_PRIORITY = 4
_F_METHOD_ID = 8
_F_REPLY_OK = 16
_F_REPLY_ERROR = 32

# element flag bits
_EF_REPLICAS = 1
_EF_DERIVED_OID = 2   # oid == f"{name}-{counter}" (the fresh_oid shape)

# failure flag bits
_XF_RETRY_AFTER = 1
_XF_OWNER = 2
_XF_INVOCATION = 4


class CompactCodec:
    """Tag-dispatched compact binary encoding with size accounting.

    Two walks over the same grammar: ``encode_message`` is the only
    producer of bytes, ``message_size``/``payload_size`` sum the sizes
    those bytes would have without building them — what every
    ``Transport.send`` pays.  The per-message string-intern table lives
    on the stack of each call.  The instance state is the sizer's three
    memos — per envelope shape, per ``Element`` and per member listing,
    each listing's result kept per intern table it followed — so an
    instance (and what it has sized) lives and dies with the transport
    that owns it.  Every memo is bounded, oldest entry out.
    """

    name = "compact"

    def __init__(self) -> None:
        # (id(src), id(dst), method, is_reply) -> (src, dst, bytes,
        # intern table): an envelope's flags byte, four address strings
        # and method, and the table they leave for the payload — every
        # field those bytes read, except ``priority``, which stays per
        # message.  The entry holds both addresses, so their ids cannot
        # be reused while it is here; oldest entry out at
        # _ENVELOPE_ENTRIES (tests and decode_message build fresh
        # addresses).
        self._envelopes: dict[tuple, tuple] = {}
        # id(element) -> (element, fixed bytes, ((string, first-use
        # cost), ...), None): the part of an element's size that does
        # not depend on what the message interned before it.  Keyed by
        # identity because Element equality ignores replicas; the entry
        # holds its element, so the id cannot be reused while it is here.
        self._element_sizes: dict[int, tuple] = {}
        # id(listing) -> the same for a tuple made only of elements: its
        # header plus its elements' fixed bytes, and their strings end
        # to end in wire order — a server replies with the same member
        # tuple until the collection is written.  Its last slot is what
        # it came to after each intern table it was sized after:
        # (strings already interned) -> (bytes, strings it added), the
        # oldest out at _LISTING_CONTEXTS.  Tuples only (a list can
        # change under its id), oldest entry out at _LISTING_ENTRIES (a
        # soak writes 10**4 listing versions).
        self._listing_sizes: dict[int, tuple] = {}

    # -- public API ------------------------------------------------------
    def message_size(self, msg: Message) -> int:
        """Exactly ``len(encode_message(msg))``, without encoding."""
        # canonical_size counts each id as one byte
        extra = _uvarint_len(msg.msg_id) - 1
        if msg.reply_to is not None:
            extra += _uvarint_len(msg.reply_to) - 1
        return self.canonical_size(msg) + extra

    def canonical_size(self, msg: Message) -> int:
        """``message_size`` as if ``msg_id`` (and ``reply_to``, when
        present) were 1: each is then a one-byte varint.  The one
        sizing walk: the envelope from its memo entry, the payload
        over a copy of the intern table the envelope leaves."""
        key = (id(msg.src), id(msg.dst), msg.method, msg.is_reply)
        try:
            entry = self._envelopes[key]
        except KeyError:
            entry = self._envelope_entry(key, msg)
        total = entry[2] + (1 if msg.reply_to is None else 2)
        if msg.priority != PRIORITY_NORMAL:
            total += _uvarint_len(msg.priority)
        return total + self._size_value(msg.payload, entry[3].copy())

    def payload_size(self, obj: Any) -> int:
        """Bytes ``obj`` encodes to on its own (empty intern table)."""
        return self._size_value(obj, {})

    def encode_message(self, msg: Message) -> bytes:
        out = bytearray()
        interns: dict[str, int] = {}
        flags = 0
        base = msg.method
        if msg.is_reply:
            flags |= _F_IS_REPLY
            if base.endswith("!ok"):
                flags |= _F_REPLY_OK
                base = base[:-3]
            elif base.endswith("!error"):
                flags |= _F_REPLY_ERROR
                base = base[:-6]
        if msg.reply_to is not None:
            flags |= _F_HAS_REPLY_TO
        if msg.priority != PRIORITY_NORMAL:
            flags |= _F_PRIORITY
        method_id = _METHOD_IDS.get(base)
        if method_id is not None:
            flags |= _F_METHOD_ID
        out.append(flags)
        encode_uvarint(msg.msg_id, out)
        if msg.reply_to is not None:
            encode_uvarint(msg.reply_to, out)
        if msg.priority != PRIORITY_NORMAL:
            encode_uvarint(msg.priority, out)
        for part in (msg.src.node, msg.src.service,
                     msg.dst.node, msg.dst.service):
            self._encode_str(part, out, interns)
        if method_id is not None:
            encode_uvarint(method_id, out)
        else:
            self._encode_str(base, out, interns)
        self._encode_value(msg.payload, out, interns)
        return bytes(out)

    def decode_message(self, data: bytes) -> Message:
        interns: list[str] = []
        flags = data[0]
        pos = 1
        msg_id, pos = decode_uvarint(data, pos)
        reply_to = None
        if flags & _F_HAS_REPLY_TO:
            reply_to, pos = decode_uvarint(data, pos)
        priority = PRIORITY_NORMAL
        if flags & _F_PRIORITY:
            priority, pos = decode_uvarint(data, pos)
        parts = []
        for _ in range(4):
            part, pos = self._decode_str(data, pos, interns)
            parts.append(part)
        if flags & _F_METHOD_ID:
            method_id, pos = decode_uvarint(data, pos)
            method = METHODS[method_id]
        else:
            method, pos = self._decode_str(data, pos, interns)
        if flags & _F_REPLY_OK:
            method += "!ok"
        elif flags & _F_REPLY_ERROR:
            method += "!error"
        payload, pos = self._decode_value(data, pos, interns)
        return Message(
            src=Address(parts[0], parts[1]),
            dst=Address(parts[2], parts[3]),
            method=method,
            payload=payload,
            is_reply=bool(flags & _F_IS_REPLY),
            reply_to=reply_to,
            priority=priority,
            msg_id=msg_id,
        )

    # -- strings (interned per message) ---------------------------------
    def _encode_str(self, s: str, out: bytearray,
                    interns: dict[str, int]) -> None:
        index = interns.get(s)
        if index is not None:
            out.append(_T_REF)
            encode_uvarint(index, out)
            return
        raw = s.encode("utf-8")
        out.append(_T_STR)
        encode_uvarint(len(raw), out)
        out += raw
        interns[s] = len(interns)

    def _decode_str(self, data: bytes, pos: int,
                    interns: list[str]) -> tuple[str, int]:
        tag = data[pos]
        pos += 1
        if tag == _T_REF:
            index, pos = decode_uvarint(data, pos)
            return interns[index], pos
        if tag != _T_STR:
            raise ValueError(f"expected string tag, got {tag}")
        length, pos = decode_uvarint(data, pos)
        s = data[pos:pos + length].decode("utf-8")
        interns.append(s)
        return s, pos + length

    # -- values ----------------------------------------------------------
    def _encode_value(self, obj: Any, out: bytearray,
                      interns: dict[str, int]) -> None:
        if obj is None:
            out.append(_T_NONE)
        elif obj is True:
            out.append(_T_TRUE)
        elif obj is False:
            out.append(_T_FALSE)
        elif type(obj) is int:
            out.append(_T_INT)
            encode_uvarint(_zigzag(obj), out)
        elif type(obj) is float:
            out.append(_T_FLOAT)
            out += struct.pack(">d", obj)
        elif type(obj) is str:
            self._encode_str(obj, out, interns)
        elif type(obj) is bytes:
            out.append(_T_BYTES)
            encode_uvarint(len(obj), out)
            out += obj
        elif type(obj) is tuple or type(obj) is list:
            out.append(_T_TUPLE if type(obj) is tuple else _T_LIST)
            encode_uvarint(len(obj), out)
            for item in obj:
                self._encode_value(item, out, interns)
        elif type(obj) is dict:
            if obj.keys() == _DELTA_KEYS and _delta_shaped(obj):
                self._encode_delta(obj, out, interns)
            else:
                out.append(_T_DICT)
                encode_uvarint(len(obj), out)
                for key, value in obj.items():
                    self._encode_value(key, out, interns)
                    self._encode_value(value, out, interns)
        elif type(obj) is set or type(obj) is frozenset:
            out.append(_T_SET if type(obj) is set else _T_FROZENSET)
            encode_uvarint(len(obj), out)
            for item in _stable_order(obj):
                self._encode_value(item, out, interns)
        elif isinstance(obj, Blob):
            self._encode_blob(obj, out, interns)
        elif _is_element(obj):
            self._encode_element(obj, out, interns)
        elif isinstance(obj, BaseException):
            self._encode_exception(obj, out, interns)
        else:
            raw = pickle.dumps(obj, protocol=4)
            out.append(_T_PICKLE)
            encode_uvarint(len(raw), out)
            out += raw

    def _decode_value(self, data: bytes, pos: int,
                      interns: list[str]) -> tuple[Any, int]:
        tag = data[pos]
        if tag == _T_STR or tag == _T_REF:
            return self._decode_str(data, pos, interns)
        pos += 1
        if tag == _T_NONE:
            return None, pos
        if tag == _T_TRUE:
            return True, pos
        if tag == _T_FALSE:
            return False, pos
        if tag == _T_INT:
            n, pos = decode_uvarint(data, pos)
            return _unzigzag(n), pos
        if tag == _T_FLOAT:
            return struct.unpack(">d", data[pos:pos + 8])[0], pos + 8
        if tag == _T_BYTES:
            length, pos = decode_uvarint(data, pos)
            return data[pos:pos + length], pos + length
        if tag in (_T_TUPLE, _T_LIST, _T_SET, _T_FROZENSET):
            length, pos = decode_uvarint(data, pos)
            items = []
            for _ in range(length):
                item, pos = self._decode_value(data, pos, interns)
                items.append(item)
            if tag == _T_TUPLE:
                return tuple(items), pos
            if tag == _T_LIST:
                return items, pos
            if tag == _T_SET:
                return set(items), pos
            return frozenset(items), pos
        if tag == _T_DICT:
            length, pos = decode_uvarint(data, pos)
            result = {}
            for _ in range(length):
                key, pos = self._decode_value(data, pos, interns)
                value, pos = self._decode_value(data, pos, interns)
                result[key] = value
            return result, pos
        if tag == _T_DELTA:
            return self._decode_delta(data, pos, interns)
        if tag == _T_ELEMENT:
            return self._decode_element(data, pos, interns)
        if tag == _T_BLOB:
            return self._decode_blob(data, pos, interns)
        if tag == _T_FAILURE:
            return self._decode_exception(data, pos, interns)
        if tag == _T_PICKLE:
            length, pos = decode_uvarint(data, pos)
            return pickle.loads(data[pos:pos + length]), pos + length
        raise ValueError(f"unknown wire tag {tag}")

    # -- elements (flag-packed field diff) -------------------------------
    def _encode_element(self, element: Any, out: bytearray,
                        interns: dict[str, int]) -> None:
        out.append(_T_ELEMENT)
        flags = 0
        counter: Optional[int] = None
        prefix = element.name + "-"
        if element.oid.startswith(prefix):
            rest = element.oid[len(prefix):]
            if rest.isdigit() and (rest == "0" or not rest.startswith("0")):
                counter = int(rest)
                flags |= _EF_DERIVED_OID
        if element.replicas:
            flags |= _EF_REPLICAS
        out.append(flags)
        self._encode_str(element.name, out, interns)
        if counter is not None:
            encode_uvarint(counter, out)
        else:
            self._encode_str(element.oid, out, interns)
        self._encode_str(element.home, out, interns)
        if element.replicas:
            encode_uvarint(len(element.replicas), out)
            for replica in element.replicas:
                self._encode_str(replica, out, interns)

    def _decode_element(self, data: bytes, pos: int,
                        interns: list[str]) -> tuple[Any, int]:
        from ..store.elements import Element
        flags = data[pos]
        pos += 1
        name, pos = self._decode_str(data, pos, interns)
        if flags & _EF_DERIVED_OID:
            counter, pos = decode_uvarint(data, pos)
            oid = f"{name}-{counter}"
        else:
            oid, pos = self._decode_str(data, pos, interns)
        home, pos = self._decode_str(data, pos, interns)
        replicas: tuple[str, ...] = ()
        if flags & _EF_REPLICAS:
            count, pos = decode_uvarint(data, pos)
            parts = []
            for _ in range(count):
                replica, pos = self._decode_str(data, pos, interns)
                parts.append(replica)
            replicas = tuple(parts)
        return Element(name=name, oid=oid, home=home, replicas=replicas), pos

    # -- blobs (declared body size dominates) ----------------------------
    def _encode_blob(self, blob: Blob, out: bytearray,
                     interns: dict[str, int]) -> None:
        out.append(_T_BLOB)
        encode_uvarint(max(0, blob.size), out)
        before = len(out)
        self._encode_value(blob.value, out, interns)
        encoded = len(out) - before
        if blob.size > encoded:
            out += bytes(blob.size - encoded)

    def _decode_blob(self, data: bytes, pos: int,
                     interns: list[str]) -> tuple[Blob, int]:
        size, pos = decode_uvarint(data, pos)
        before = pos
        value, pos = self._decode_value(data, pos, interns)
        encoded = pos - before
        if size > encoded:
            pos += size - encoded          # skip the body padding
        return Blob(value, size), pos

    # -- sync deltas (field diff against the schema default) -------------
    def _encode_delta(self, delta: dict, out: bytearray,
                      interns: dict[str, int]) -> None:
        out.append(_T_DELTA)
        flags = _delta_flags(delta)
        encode_uvarint(flags, out)
        for bit, (key, default) in enumerate(DELTA_SCHEMA):
            if not flags & (1 << bit):
                continue
            value = delta[key]
            if key == "version" or key == "epoch":
                encode_uvarint(value, out)
            elif key == "sealed":
                pass                       # presence == True
            elif key == "ghosts":
                encode_uvarint(len(value), out)
                for ghost in value:
                    self._encode_str(ghost, out, interns)
            elif key == "adds":
                encode_uvarint(len(value), out)
                for name, element, version in value:
                    self._encode_str(name, out, interns)
                    self._encode_value(element, out, interns)
                    encode_uvarint(version, out)
            elif key == "removes":
                encode_uvarint(len(value), out)
                for name, version, element in value:
                    self._encode_str(name, out, interns)
                    encode_uvarint(version, out)
                    self._encode_value(element, out, interns)
            else:                          # active_iterations
                encode_uvarint(len(value), out)
                for item in value:
                    self._encode_value(item, out, interns)

    def _decode_delta(self, data: bytes, pos: int,
                      interns: list[str]) -> tuple[dict, int]:
        flags, pos = decode_uvarint(data, pos)
        delta = {key: default for key, default in DELTA_SCHEMA}
        for bit, (key, _default) in enumerate(DELTA_SCHEMA):
            if not flags & (1 << bit):
                continue
            if key == "version" or key == "epoch":
                delta[key], pos = decode_uvarint(data, pos)
            elif key == "sealed":
                delta[key] = True
            elif key == "ghosts":
                count, pos = decode_uvarint(data, pos)
                ghosts = []
                for _ in range(count):
                    ghost, pos = self._decode_str(data, pos, interns)
                    ghosts.append(ghost)
                delta[key] = tuple(ghosts)
            elif key == "adds":
                count, pos = decode_uvarint(data, pos)
                adds = []
                for _ in range(count):
                    name, pos = self._decode_str(data, pos, interns)
                    element, pos = self._decode_value(data, pos, interns)
                    version, pos = decode_uvarint(data, pos)
                    adds.append((name, element, version))
                delta[key] = tuple(adds)
            elif key == "removes":
                count, pos = decode_uvarint(data, pos)
                removes = []
                for _ in range(count):
                    name, pos = self._decode_str(data, pos, interns)
                    version, pos = decode_uvarint(data, pos)
                    element, pos = self._decode_value(data, pos, interns)
                    removes.append((name, version, element))
                delta[key] = tuple(removes)
            else:
                count, pos = decode_uvarint(data, pos)
                items = []
                for _ in range(count):
                    item, pos = self._decode_value(data, pos, interns)
                    items.append(item)
                delta[key] = tuple(items)
        return delta, pos

    # -- failures ---------------------------------------------------------
    def _encode_exception(self, exc: BaseException, out: bytearray,
                          interns: dict[str, int]) -> None:
        index = _EXC_IDS.get(type(exc))
        if index is None:
            raw = pickle.dumps(exc, protocol=4)
            out.append(_T_PICKLE)
            encode_uvarint(len(raw), out)
            out += raw
            return
        out.append(_T_FAILURE)
        encode_uvarint(index, out)
        flags, retry_after, owner, invocation = _failure_shape(exc)
        out.append(flags)
        self._encode_str(str(exc), out, interns)
        if flags & _XF_RETRY_AFTER:
            out += struct.pack(">d", retry_after)
        if flags & _XF_OWNER:
            self._encode_str(owner, out, interns)
        if flags & _XF_INVOCATION:
            encode_uvarint(invocation, out)

    def _decode_exception(self, data: bytes, pos: int,
                          interns: list[str]) -> tuple[BaseException, int]:
        index, pos = decode_uvarint(data, pos)
        cls = EXCEPTION_TYPES[index]
        flags = data[pos]
        pos += 1
        message, pos = self._decode_str(data, pos, interns)
        retry_after = 0.0
        owner = None
        invocation = None
        if flags & _XF_RETRY_AFTER:
            retry_after = struct.unpack(">d", data[pos:pos + 8])[0]
            pos += 8
        if flags & _XF_OWNER:
            owner, pos = self._decode_str(data, pos, interns)
        if flags & _XF_INVOCATION:
            invocation, pos = decode_uvarint(data, pos)
        if cls is ServerBusyFailure:
            return cls(message, retry_after=retry_after), pos
        if cls is WrongShardFailure:
            return cls(message, owner=owner), pos
        if cls is SpecViolation:
            return cls(message, invocation_index=invocation), pos
        return cls(message), pos

    # -- sizes: the encoder's walk, summing instead of appending ----------
    # The envelope and element rules are written out again here rather
    # than shared: a helper call per message and per element cost the
    # encoder 3-6%.  The rare shapes (delta flags, failure extras) are
    # shared.  tests/test_net_wire_sizing.py holds the two walks equal.
    # Per message, the envelope is a memo entry and only the payload is
    # walked, over a copy of the intern table the envelope left.  The
    # walk sizes its common leaves where it finds them, without a call:
    # a string's back-reference, an int that zigzags below 128, a tuple
    # or list header under 128 items, an empty dict.  A string's first
    # use is _str_cost, the one rule elements share; the envelope, delta
    # names and failure text size their strings through _size_value.
    def _envelope_entry(self, key: tuple, msg: Message) -> tuple:
        """The memo entry of ``msg``'s envelope shape: its addresses,
        its bytes bar ids and priority, and the intern table it leaves
        (never written once entered: each message walks a copy)."""
        interns: dict[str, int] = {}
        base = msg.method
        if msg.is_reply:
            if base.endswith("!ok"):
                base = base[:-3]
            elif base.endswith("!error"):
                base = base[:-6]
        method_id = _METHOD_IDS.get(base)
        total = 1                          # the flags byte
        for part in (msg.src.node, msg.src.service,
                     msg.dst.node, msg.dst.service):
            total += self._size_value(part, interns)
        if method_id is not None:
            total += _uvarint_len(method_id)
        else:
            total += self._size_value(base, interns)
        envelopes = self._envelopes
        if len(envelopes) >= _ENVELOPE_ENTRIES:
            del envelopes[next(iter(envelopes))]
        entry = envelopes[key] = (msg.src, msg.dst, total, interns)
        return entry

    def _size_value(self, obj: Any, interns: dict[str, int]) -> int:
        if obj is None or obj is True or obj is False:
            return 1
        cls = type(obj)
        if cls is int:
            if -64 <= obj < 64:            # zigzags below 128
                return 2
            return 1 + _uvarint_len(_zigzag(obj))
        if cls is float:
            return 9
        if cls is str:
            if obj in interns:
                index = interns[obj]
                return 2 if index < 128 else 1 + _uvarint_len(index)
            interns[obj] = len(interns)
            return _str_cost(obj)
        if cls is bytes:
            n = len(obj)
            return 1 + _uvarint_len(n) + n
        if cls is tuple or cls is list:
            entry = None
            if cls is tuple and obj and obj[0].__class__ not in _WALKED:
                entry = self._listing_entry(obj)
            if entry is None:
                n = len(obj)
                total = 2 if n < 128 else 1 + _uvarint_len(n)
                for item in obj:
                    total += self._size_value(item, interns)
                return total
        elif cls is dict:
            if not obj:                    # every request's kwargs
                return 2
            if obj.keys() == _DELTA_KEYS and _delta_shaped(obj):
                return self._size_delta(obj, interns)
            total = 1 + _uvarint_len(len(obj))
            for key, value in obj.items():
                total += self._size_value(key, interns)
                total += self._size_value(value, interns)
            return total
        elif cls is set or cls is frozenset:
            total = 1 + _uvarint_len(len(obj))
            for item in _stable_order(obj):
                total += self._size_value(item, interns)
            return total
        else:
            # A memo hit is an element: entries are only made below,
            # after the Blob test failed for that very object.
            key = id(obj)
            if key in self._element_sizes:
                entry = self._element_sizes[key]
            elif isinstance(obj, Blob):
                # The declared body dominates; no padding is allocated.
                return (1 + _uvarint_len(max(0, obj.size))
                        + max(obj.size, self._size_value(obj.value, interns)))
            elif _is_element(obj):
                entry = self._element_sizes[key] = _element_entry(obj)
            else:
                return self._size_fallback(obj, interns)
        _held, total, strings, contexts = entry
        if contexts is None:               # an element's
            return _size_strings(total, strings, interns)
        # A listing's: the intern table so far fixes every index, so
        # after a table it was sized after it adds the same strings for
        # the same bytes.
        context = tuple(interns)
        known = contexts.get(context)
        if known is not None:
            total, added = known
            interns.update(zip(added, count(len(context))))
            return total
        total = _size_strings(total, strings, interns)
        if len(contexts) >= _LISTING_CONTEXTS:
            del contexts[next(iter(contexts))]
        contexts[context] = (total, tuple(interns)[len(context):])
        return total

    def _listing_entry(self, listing: tuple) -> Optional[tuple]:
        """The memo entry of a tuple made only of elements (None, and no
        entry, if any item is something else)."""
        entry = self._listing_sizes.get(id(listing))
        if entry is not None:
            return entry
        element_sizes = self._element_sizes
        fixed = 1 + _uvarint_len(len(listing))
        strings: list = []
        for item in listing:
            key = id(item)
            if key in element_sizes:
                _element, size, own, _ = element_sizes[key]
            elif _is_element(item):
                _element, size, own, _ = element_sizes[key] = \
                    _element_entry(item)
            else:
                return None
            fixed += size
            strings += own
        if len(self._listing_sizes) >= _LISTING_ENTRIES:
            del self._listing_sizes[next(iter(self._listing_sizes))]
        entry = self._listing_sizes[id(listing)] = (
            listing, fixed, tuple(strings), {})
        return entry

    def _size_delta(self, delta: dict, interns: dict[str, int]) -> int:
        flags = _delta_flags(delta)
        total = 1 + _uvarint_len(flags)
        for bit, (key, _default) in enumerate(DELTA_SCHEMA):
            if not flags & (1 << bit):
                continue
            value = delta[key]
            if key == "version" or key == "epoch":
                total += _uvarint_len(value)
            elif key == "sealed":
                pass                       # presence == True
            elif key == "ghosts":
                total += _uvarint_len(len(value))
                for ghost in value:
                    total += self._size_value(ghost, interns)
            elif key == "adds":
                total += _uvarint_len(len(value))
                for name, element, version in value:
                    total += self._size_value(name, interns)
                    total += self._size_value(element, interns)
                    total += _uvarint_len(version)
            elif key == "removes":
                total += _uvarint_len(len(value))
                for name, version, element in value:
                    total += self._size_value(name, interns)
                    total += _uvarint_len(version)
                    total += self._size_value(element, interns)
            else:                          # active_iterations
                total += _uvarint_len(len(value))
                for item in value:
                    total += self._size_value(item, interns)
        return total

    def _size_fallback(self, obj: Any, interns: dict[str, int]) -> int:
        """Failures by their schema; anything else, and a failure class
        without a tag, by the pickle it would travel as (the one place
        sizing still serialises)."""
        index = _EXC_IDS.get(type(obj))
        if index is None:
            raw = len(pickle.dumps(obj, protocol=4))
            return 1 + _uvarint_len(raw) + raw
        flags, _retry_after, owner, invocation = _failure_shape(obj)
        total = 2 + _uvarint_len(index)
        total += self._size_value(str(obj), interns)
        if flags & _XF_RETRY_AFTER:
            total += 8
        if flags & _XF_OWNER:
            total += self._size_value(owner, interns)
        if flags & _XF_INVOCATION:
            total += _uvarint_len(invocation)
        return total


#: how many envelope shapes a codec remembers the size of
_ENVELOPE_ENTRIES = 256

#: how many member listings a codec remembers the size of
_LISTING_ENTRIES = 64

#: how many intern tables a listing remembers its size after
_LISTING_CONTEXTS = 8

#: the classes ``_size_value`` walks itself: a tuple that starts with
#: one of these is not a member listing
_WALKED = frozenset({type(None), bool, int, float, str, bytes, tuple, list,
                     dict, set, frozenset})


def _element_entry(element: Any) -> tuple:
    """An element's memo entry: itself, its bytes that are the same in
    every message, its strings in wire order with what each costs where
    it is the message's first use of that string, and None (it keeps no
    result per intern table, as a listing does)."""
    fixed = 2                              # tag + flags
    strings = [element.name]
    prefix = element.name + "-"
    rest = element.oid[len(prefix):]
    if element.oid.startswith(prefix) and rest.isdigit() \
            and (rest == "0" or not rest.startswith("0")):
        fixed += _uvarint_len(int(rest))   # derived oid: the counter only
    else:
        strings.append(element.oid)
    strings.append(element.home)
    if element.replicas:
        fixed += _uvarint_len(len(element.replicas))
        strings.extend(element.replicas)
    return element, fixed, tuple((s, _str_cost(s)) for s in strings), None


def _size_strings(total: int, strings: tuple, interns: dict[str, int]) -> int:
    """``total`` plus, per string of a memo entry, a back-reference or,
    where this is the message's first use of it, its first-use cost
    (and the string is interned)."""
    interned = len(interns)
    for s, first_use in strings:
        if s in interns:
            index = interns[s]
            total += 2 if index < 128 else 1 + _uvarint_len(index)
        else:
            interns[s] = interned
            interned += 1
            total += first_use
    return total


def _delta_flags(delta: dict) -> int:
    """Presence bitfield: which fields differ from the schema default."""
    flags = 0
    for bit, (key, default) in enumerate(DELTA_SCHEMA):
        if delta[key] != default:
            flags |= 1 << bit
    return flags


def _failure_shape(exc: BaseException) -> tuple[int, Any, Any, Any]:
    """(failure flags, retry_after, owner, invocation_index)."""
    flags = 0
    retry_after = getattr(exc, "retry_after", None)
    owner = getattr(exc, "owner", None)
    invocation = getattr(exc, "invocation_index", None)
    if retry_after:
        flags |= _XF_RETRY_AFTER
    if owner is not None:
        flags |= _XF_OWNER
    if invocation is not None:
        flags |= _XF_INVOCATION
    return flags, retry_after, owner, invocation


def _str_cost(s: str) -> int:
    """Bytes of a string's first use in a message: tag, length, UTF-8."""
    n = len(s) if s.isascii() else len(s.encode("utf-8"))
    return (2 if n < 128 else 1 + _uvarint_len(n)) + n


def _is_element(obj: Any) -> bool:
    # Structural check instead of an import: net must stay importable
    # without the store layer (the Element import in decode is lazy).
    cls = type(obj)
    return cls.__name__ == "Element" and hasattr(obj, "oid") \
        and hasattr(obj, "home") and hasattr(obj, "replicas")


def _stable_order(items) -> list:
    """Deterministic ordering for unordered containers (set bytes must
    not depend on hash randomization)."""
    try:
        return sorted(items)
    except TypeError:
        return sorted(items, key=repr)


class NaiveCodec:
    """The honesty baseline: "just pickle the Python objects".

    Sizes are what :mod:`pickle` produces for the whole envelope, plus
    the declared body bytes of any :class:`Blob` in the payload (minus
    the stand-in value pickle already counted, so bodies are charged
    once and identically to the compact codec).  ``encode``/``decode``
    round-trip through pickle so the codec is usable, not just
    measurable.
    """

    name = "naive"

    def message_size(self, msg: Message) -> int:
        return len(self.encode_message(msg)) + _blob_extra(msg.payload)

    def canonical_size(self, msg: Message) -> int:
        """``message_size`` as if ``msg_id`` (and ``reply_to``, when
        present) were 1; a pickled int's width is not worth deriving,
        so this codec measures a copy."""
        return self.message_size(replace(
            msg, msg_id=1,
            reply_to=None if msg.reply_to is None else 1,
            wire_size=None))

    def payload_size(self, obj: Any) -> int:
        return len(pickle.dumps(obj, protocol=4)) + _blob_extra(obj)

    def encode_message(self, msg: Message) -> bytes:
        return pickle.dumps(msg, protocol=4)

    def decode_message(self, data: bytes) -> Message:
        return pickle.loads(data)


def _blob_extra(obj: Any) -> int:
    """Declared Blob body bytes beyond their pickled stand-in values."""
    if isinstance(obj, Blob):
        stand_in = len(pickle.dumps(obj.value, protocol=4))
        return max(0, obj.size - stand_in) + _blob_extra(obj.value)
    if isinstance(obj, (tuple, list, set, frozenset)):
        return sum(_blob_extra(item) for item in obj)
    if isinstance(obj, dict):
        return sum(_blob_extra(v) for v in obj.values())
    return 0


_CODECS = {"compact": CompactCodec, "naive": NaiveCodec}


def codec_by_name(name: str):
    try:
        return _CODECS[name]()
    except KeyError:
        raise ValueError(
            f"unknown wire codec {name!r}; known: {sorted(_CODECS)}"
        ) from None


@dataclass
class WireFormat:
    """The transport's wire settings: codec + sender-side CPU rate.

    ``serialize_rate`` is bytes/second the sender's CPU sustains while
    encoding; 0 means serialisation is free (the seed behaviour).  The
    delay is charged once, before the first bit reaches the first link.
    """

    codec: Any = field(default_factory=CompactCodec)
    serialize_rate: float = 0.0

    def measure(self, msg: Message) -> int:
        # Measure against canonical envelope ids: msg_id comes from a
        # process-global counter, so its varint width (or pickled
        # length) would otherwise depend on how many messages the
        # *process* — not the scenario — had already sent, breaking
        # seed-deterministic byte counts.  A real wire's message ids
        # are per-connection sequence numbers of fixed small width.
        return self.codec.canonical_size(msg)

    def serialize_delay(self, size: int) -> float:
        if self.serialize_rate <= 0 or size <= 0:
            return 0.0
        return size / self.serialize_rate


# ---------------------------------------------------------------------------
# bandwidth presets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BandwidthPreset:
    """Bytes/second for the three link classes of a WAN scenario."""

    intra: float            # links inside a cluster / datacenter
    inter: float            # links between cluster heads (the WAN)
    access: float           # the client's access link
    serialize_rate: float = 0.0


#: 1 Gb/s LAN everywhere; 10 Mb/s WAN core; a 2 Mb/s mobile uplink.
BANDWIDTH_PRESETS: dict[str, BandwidthPreset] = {
    "lan": BandwidthPreset(intra=125_000_000.0, inter=125_000_000.0,
                           access=125_000_000.0),
    "wan": BandwidthPreset(intra=125_000_000.0, inter=1_250_000.0,
                           access=1_250_000.0,
                           serialize_rate=200_000_000.0),
    "mobile": BandwidthPreset(intra=12_500_000.0, inter=1_250_000.0,
                              access=250_000.0,
                              serialize_rate=50_000_000.0),
}
