"""Message envelopes for the simulated transport."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

from .address import Address
from .executor import PRIORITY_NORMAL

__all__ = ["Message"]

_msg_ids = itertools.count(1)


@dataclass(frozen=True, init=False)
class Message:
    """One network message (request or reply).

    A frozen dataclass to everything that reads it (``fields``,
    ``replace``, ``==``, ``hash``, ``repr``, pickling; assignment raises
    ``FrozenInstanceError``).  Only ``__init__`` is written out: the
    generated one pays an ``object.__setattr__`` slot-wrapper call per
    field to get past its own freeze, nine per message, and a message is
    built two or three times per RPC.
    """

    src: Address
    dst: Address
    method: str
    payload: Any = None
    is_reply: bool = False
    reply_to: Optional[int] = None
    #: admission-priority class (see :mod:`repro.net.executor`) the
    #: destination's bounded executor queues this request under.
    priority: int = PRIORITY_NORMAL
    #: minted by ``__init__`` from the module's counter when not given
    msg_id: int
    #: bytes this message occupies on the wire, stamped by the
    #: transport's :class:`repro.net.wire.WireFormat` at send time
    #: (``None`` until sent, or when the transport has no wire format).
    wire_size: Optional[int] = field(default=None, compare=False)

    def __init__(self, src: Address, dst: Address, method: str,
                 payload: Any = None, is_reply: bool = False,
                 reply_to: Optional[int] = None,
                 priority: int = PRIORITY_NORMAL,
                 msg_id: Optional[int] = None,
                 wire_size: Optional[int] = None):
        # The instance dictionary, filled key by key in declared field
        # order: the order ``vars(msg)``, and so the pickled bytes, have
        # always had — and the one that keeps the dictionary sharing
        # its keys with every other message's (144 B; installing one
        # ready-made dictionary instead is ~2% faster on an RPC
        # workload, CPython 3.11 reading an unshared one quicker, and
        # 272 B a message: a MiB where thousands are held).
        state = self.__dict__
        state["src"] = src
        state["dst"] = dst
        state["method"] = method
        state["payload"] = payload
        state["is_reply"] = is_reply
        state["reply_to"] = reply_to
        state["priority"] = priority
        state["msg_id"] = next(_msg_ids) if msg_id is None else msg_id
        state["wire_size"] = wire_size

    def reply(self, payload: Any, *, error: bool = False) -> "Message":
        """Build the reply envelope for this request."""
        return Message(
            src=self.dst,
            dst=self.src,
            method=f"{self.method}{'!error' if error else '!ok'}",
            payload=payload,
            is_reply=True,
            reply_to=self.msg_id,
            priority=self.priority,
        )

    def __str__(self) -> str:
        kind = "reply" if self.is_reply else "call"
        return f"{kind} #{self.msg_id} {self.src} -> {self.dst} {self.method}"
