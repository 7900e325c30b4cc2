"""Named, seed-derived random streams.

All randomness in a simulation flows through a :class:`RandomRouter`.
Each consumer asks for a *named* stream; the stream's seed is derived
deterministically from the root seed and the name, so adding a new
consumer never perturbs the random sequence seen by existing consumers.
This is the standard trick for keeping large discrete-event simulations
reproducible as they grow.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Sequence, TypeVar

__all__ = ["RandomRouter", "Stream"]

T = TypeVar("T")


def _derive_seed(root_seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class Stream:
    """A deterministic random stream with simulation-oriented helpers."""

    def __init__(self, seed: int, name: str):
        self.name = name
        self._rng = random.Random(seed)

    # -- thin wrappers -------------------------------------------------
    def random(self) -> float:
        return self._rng.random()

    def uniform(self, a: float, b: float) -> float:
        return self._rng.uniform(a, b)

    def randint(self, a: int, b: int) -> int:
        return self._rng.randint(a, b)

    def choice(self, seq: Sequence[T]) -> T:
        return self._rng.choice(seq)

    def sample(self, seq: Sequence[T], k: int) -> list[T]:
        return self._rng.sample(seq, k)

    def shuffle(self, seq: list) -> None:
        self._rng.shuffle(seq)

    def gauss(self, mu: float, sigma: float) -> float:
        return self._rng.gauss(mu, sigma)

    # -- simulation helpers --------------------------------------------
    def exponential(self, mean: float) -> float:
        """Exponentially distributed delay with the given mean (>= 0)."""
        if mean <= 0:
            return 0.0
        return self._rng.expovariate(1.0 / mean)

    def bernoulli(self, p: float) -> bool:
        """True with probability ``p``."""
        return self._rng.random() < p

    def zipf_index(self, n: int, skew: float = 1.0) -> int:
        """An index in ``[0, n)`` drawn from a Zipf-like distribution.

        Index 0 is the most popular.  ``skew == 0`` degenerates to
        uniform.  Uses inverse-CDF sampling over the finite support.
        """
        if n <= 0:
            raise ValueError("zipf_index needs n >= 1")
        if skew <= 0:
            return self._rng.randrange(n)
        weights = [1.0 / (i + 1) ** skew for i in range(n)]
        total = sum(weights)
        target = self._rng.random() * total
        acc = 0.0
        for i, w in enumerate(weights):
            acc += w
            if target < acc:
                return i
        return n - 1

    def lognormal(self, mean: float, sigma: float = 1.0) -> float:
        """Lognormally distributed delay with the given *mean* (>= 0).

        Parameterised by the distribution's mean rather than ``mu`` so
        open-loop arrival processes can dial a target rate directly:
        ``mu = ln(mean) - sigma**2 / 2`` makes ``E[X] == mean`` while
        ``sigma`` controls how heavy the tail is (burstiness).
        """
        if mean <= 0:
            return 0.0
        mu = math.log(mean) - 0.5 * sigma * sigma
        return self._rng.lognormvariate(mu, sigma)

    def pareto_latency(self, floor: float, alpha: float = 2.5) -> float:
        """Heavy-tailed latency: ``floor`` plus a Pareto-distributed tail.

        WAN latencies are famously heavy-tailed; this gives the benchmark
        workloads a realistic latency spread without a trace file.
        """
        return floor * (1.0 + self._rng.paretovariate(alpha) - 1.0)

    def __repr__(self) -> str:
        return f"Stream({self.name!r})"


class RandomRouter:
    """Hands out named deterministic streams derived from one root seed."""

    def __init__(self, root_seed: int = 0):
        self.root_seed = int(root_seed)
        self._streams: dict[str, Stream] = {}

    def stream(self, name: str) -> Stream:
        """Return the stream for ``name``, creating it on first use.

        Repeated calls with the same name return the *same* stream object
        (which therefore continues its sequence, rather than restarting).
        """
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        s = Stream(_derive_seed(self.root_seed, name), name)
        self._streams[name] = s
        return s

    def __repr__(self) -> str:
        return f"RandomRouter(root_seed={self.root_seed}, streams={len(self._streams)})"
