"""Metric instruments: counters, gauges, and bucketed histograms.

A :class:`MetricsRegistry` is a flat name → instrument map.  The
simulator threads exactly one registry through every layer (it lives on
the kernel's :class:`~repro.obs.Observability`), so a run's entire cost
story — events processed, messages sent, retries, drain latencies — is
one snapshot away.

Design constraints, in order:

* **cheap** — instruments sit on the kernel's hot path (one counter
  increment per simulated event), so they are plain attribute writes on
  ``__slots__`` objects; no locks, no label hashing per observation.
  Callers that observe repeatedly pre-resolve the instrument once.
* **deterministic** — instruments never read wall or virtual clocks
  themselves; callers pass values in.  A snapshot of a seeded run is a
  pure function of (code, seed), which is what lets CI diff artifacts.
* **serializable** — :meth:`MetricsRegistry.snapshot` emits plain dicts
  that survive a JSON round-trip (see :mod:`repro.obs.export`).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator, Optional, Sequence

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "DEFAULT_LATENCY_BUCKETS"]

#: Exponential-ish bucket bounds (seconds) sized for simulated RPC and
#: drain latencies: sub-millisecond service times up to multi-second
#: blocked-drain waits.  A value lands in the first bucket whose upper
#: bound is >= the value; anything beyond the last bound overflows into
#: the +Inf bucket.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


class Counter:
    """A monotonically non-decreasing sum (float-valued: wall seconds
    accumulate here too, not just event counts)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        self.value += amount

    def to_dict(self) -> dict:
        return {"kind": "counter", "name": self.name, "value": self.value}

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A value that goes up and down (queue depth, open circuits)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta

    def to_dict(self) -> dict:
        return {"kind": "gauge", "name": self.name, "value": self.value}

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """Fixed-bucket histogram with sum/count/min/max.

    ``bounds`` are inclusive upper bucket edges; observations greater
    than the last bound land in an implicit +Inf bucket, so ``counts``
    has ``len(bounds) + 1`` entries and no observation is ever lost.
    :meth:`quantile` linearly interpolates within a bucket — exact
    enough for regression gating, bounded memory regardless of sample
    count.
    """

    __slots__ = ("name", "bounds", "counts", "total", "count", "vmin", "vmax")

    def __init__(self, name: str, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS):
        ordered = tuple(float(b) for b in bounds)
        if not ordered:
            raise ValueError(f"histogram {name} needs at least one bucket bound")
        if list(ordered) != sorted(set(ordered)):
            raise ValueError(f"histogram {name} bounds must be strictly increasing")
        self.name = name
        self.bounds = ordered
        self.counts = [0] * (len(ordered) + 1)
        self.total = 0.0
        self.count = 0
        self.vmin: Optional[float] = None
        self.vmax: Optional[float] = None

    def observe(self, value: float) -> None:
        if value != value:  # NaN would poison every aggregate silently
            raise ValueError(f"histogram {self.name} cannot observe NaN")
        # The first bound >= value (bounds are inclusive upper edges);
        # past the last one, the +Inf bucket.
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1
        if self.vmin is None or value < self.vmin:
            self.vmin = value
        if self.vmax is None or value > self.vmax:
            self.vmax = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate q-quantile (0 <= q <= 1) by linear interpolation
        inside the containing bucket; exact at observed min/max."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        if self.count == 0:
            return 0.0
        assert self.vmin is not None and self.vmax is not None
        rank = q * self.count
        seen = 0
        for i, n in enumerate(self.counts):
            if n == 0:
                continue
            if seen + n >= rank:
                lo = self.vmin if i == 0 else self.bounds[i - 1]
                hi = self.vmax if i == len(self.bounds) else self.bounds[i]
                lo = max(lo, self.vmin)
                hi = min(hi, self.vmax)
                if hi <= lo:
                    return lo
                frac = (rank - seen) / n
                return lo + (hi - lo) * frac
            seen += n
        return self.vmax

    def to_dict(self) -> dict:
        return {
            "kind": "histogram", "name": self.name,
            "bounds": list(self.bounds), "counts": list(self.counts),
            "sum": self.total, "count": self.count,
            "min": self.vmin, "max": self.vmax,
        }

    def __repr__(self) -> str:
        return (f"Histogram({self.name}, n={self.count}, "
                f"mean={self.mean:.6f})")


class MetricsRegistry:
    """Flat name → instrument map; the single source of metric truth.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the first
    call defines the instrument, later calls return the same object (a
    kind mismatch is a bug and raises).  Hot paths call once and keep
    the instrument.
    """

    __slots__ = ("_instruments",)

    def __init__(self) -> None:
        self._instruments: dict[str, object] = {}

    def _get(self, name: str, cls, *args):
        inst = self._instruments.get(name)
        if inst is None:
            inst = cls(name, *args)
            self._instruments[name] = inst
            return inst
        if not isinstance(inst, cls):
            raise TypeError(
                f"metric {name!r} is a {type(inst).__name__}, "
                f"not a {cls.__name__}"
            )
        return inst

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str,
                  bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> Histogram:
        return self._get(name, Histogram, bounds)

    def get(self, name: str) -> Optional[object]:
        """The instrument named ``name``, or None (no creation)."""
        return self._instruments.get(name)

    def value(self, name: str, default: float = 0) -> float:
        """Counter/gauge value by name (0 for never-touched metrics)."""
        inst = self._instruments.get(name)
        if inst is None:
            return default
        if isinstance(inst, (Counter, Gauge)):
            return inst.value
        raise TypeError(f"metric {name!r} is a {type(inst).__name__}; "
                        "read histograms via get()")

    def snapshot(self) -> dict[str, dict]:
        """All instruments as JSON-ready dicts, sorted by name."""
        return {name: inst.to_dict()  # type: ignore[attr-defined]
                for name, inst in sorted(self._instruments.items())}

    def __iter__(self) -> Iterator[object]:
        return iter(self._instruments.values())

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self._instruments)} instruments)"
