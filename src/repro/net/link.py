"""Point-to-point links and their latency models.

The paper's setting is a wide-area system where "fetching 'closer' files
first" is a meaningful optimization, so links carry an explicit latency
model; the dynamic-sets prefetcher (``repro.store.fetchplan``) uses
estimated latency as its proximity metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..errors import SimulationError
from ..sim.rng import Stream

__all__ = ["LatencyModel", "FixedLatency", "ParetoLatency", "Link"]


class LatencyModel:
    """Strategy for drawing one-way message delays."""

    def sample(self, stream: Optional[Stream]) -> float:
        raise NotImplementedError

    def expected(self) -> float:
        """Deterministic estimate used for closest-first scheduling."""
        raise NotImplementedError


@dataclass(frozen=True)
class FixedLatency(LatencyModel):
    """Constant one-way delay: ``sample`` is ``delay``, whatever the
    stream — ``Transport.send`` reads the field instead of calling
    (exactly this class: a subclass keeps its call), so the two move
    together."""

    delay: float

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise SimulationError(f"negative latency {self.delay}")

    def sample(self, stream: Optional[Stream]) -> float:
        return self.delay

    def expected(self) -> float:
        return self.delay


@dataclass(frozen=True)
class ParetoLatency(LatencyModel):
    """Heavy-tailed WAN delay: ``floor`` plus a Pareto tail."""

    floor: float
    alpha: float = 2.5

    def __post_init__(self) -> None:
        if self.floor <= 0 or self.alpha <= 1:
            raise SimulationError(
                f"ParetoLatency needs floor>0 and alpha>1, got {self.floor}, {self.alpha}"
            )

    def sample(self, stream: Optional[Stream]) -> float:
        if stream is None:
            return self.expected()
        return stream.pareto_latency(self.floor, self.alpha)

    def expected(self) -> float:
        # Mean of floor * Pareto(alpha) = floor * alpha / (alpha - 1).
        return self.floor * self.alpha / (self.alpha - 1.0)


@dataclass
class Link:
    """An undirected link between two nodes.

    ``up`` reflects *link* failures (the paper's "link down"); partition
    and crash effects are layered on top by the transport.
    ``loss_rate`` drops individual messages with the given probability —
    the flaky-but-up link whose failures surface only as timeouts.
    ``bandwidth`` is bytes/second; 0 means infinite (latency-only, the
    seed behaviour).  A finite-bandwidth link is a FIFO: each direction
    transmits one message at a time, and later messages queue behind the
    earlier ones' transfer times.
    """

    a: str
    b: str
    latency: LatencyModel = field(default_factory=lambda: FixedLatency(0.01))
    up: bool = True
    loss_rate: float = 0.0
    bandwidth: float = 0.0

    #: per-direction time at which the last queued transmission drains;
    #: keyed by sending endpoint.  Simulation state, not configuration.
    _busy: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_rate < 1.0:
            raise SimulationError(f"loss_rate must be in [0, 1), got {self.loss_rate}")
        if self.bandwidth < 0:
            raise SimulationError(f"bandwidth must be >= 0, got {self.bandwidth}")

    def endpoints(self) -> frozenset[str]:
        return frozenset((self.a, self.b))

    def other(self, node: str) -> str:
        if node == self.a:
            return self.b
        if node == self.b:
            return self.a
        raise SimulationError(f"{node} is not an endpoint of {self}")

    def transmit(self, sender: str, size: int, now: float) -> tuple[float, float]:
        """Enqueue ``size`` bytes in ``sender``'s direction at time ``now``.

        Returns ``(queue_wait, transfer_time)``: how long the message
        waits behind earlier transmissions, and how long its own bits
        take on the wire.  Advances the FIFO so the next caller queues
        behind this transmission.  Infinite-bandwidth links return
        ``(0, 0)`` and keep no FIFO, which is why ``Transport.send`` only
        calls this where ``bandwidth > 0`` — the two move together
        (``tests/test_rpc_host_cost.py`` holds them float for float).
        """
        if self.bandwidth <= 0:
            return 0.0, 0.0
        start = max(now, self._busy.get(sender, 0.0))
        transfer = size / self.bandwidth
        self._busy[sender] = start + transfer
        return start - now, transfer

    def __repr__(self) -> str:
        state = "up" if self.up else "DOWN"
        extras = f", loss={self.loss_rate:.3g}"
        if self.bandwidth > 0:
            extras += f", bw={self.bandwidth:.4g}B/s"
        else:
            extras += ", bw=inf"
        return (
            f"Link({self.a}<->{self.b}, {state}, "
            f"~{self.latency.expected() * 1000:.1f}ms{extras})"
        )
