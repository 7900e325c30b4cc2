"""Message envelopes for the simulated transport."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

from .address import Address
from .executor import PRIORITY_NORMAL

__all__ = ["Message"]

_msg_ids = itertools.count(1)


@dataclass(frozen=True)
class Message:
    """One network message (request or reply)."""

    src: Address
    dst: Address
    method: str
    payload: Any = None
    is_reply: bool = False
    reply_to: Optional[int] = None
    #: admission-priority class (see :mod:`repro.net.executor`) the
    #: destination's bounded executor queues this request under.
    priority: int = PRIORITY_NORMAL
    msg_id: int = field(default_factory=_msg_ids.__next__)
    #: bytes this message occupies on the wire, stamped by the
    #: transport's :class:`repro.net.wire.WireFormat` at send time
    #: (``None`` until sent, or when the transport has no wire format).
    wire_size: Optional[int] = field(default=None, compare=False)

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
