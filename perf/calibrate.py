"""The reference loop host time is divided by.

Raw seconds on a shared box swing with the neighbours' load, so every
timed pass is bracketed by this loop and reported in *reference
seconds*: ``wall_s * REFERENCE_S / calib_s``.  The loop is fixed pure
Python of the simulator's own flavour (heapq, a generator, dict and
bytearray traffic), imports nothing from ``repro``, and never changes
with the code under test — edit it and every recorded number loses its
baseline.
"""

from __future__ import annotations

import heapq
import time

__all__ = ["REFERENCE_S", "calibrate"]

#: What one calibration loop took on the box the benchmark was defined
#: on; only fixes the unit of "reference second".
REFERENCE_S = 0.0625

_ROUNDS = 75_000


def _ticks(n: int):
    # A small LCG: deterministic, allocation-light, branchy enough to
    # look like event times.
    x = 12345
    for _ in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        yield x


def _loop() -> int:
    heap: list[tuple[int, int]] = []
    seen: dict[int, int] = {}
    out = bytearray()
    checksum = 0
    for i, x in enumerate(_ticks(_ROUNDS)):
        heapq.heappush(heap, (x & 0xFFFF, i))
        seen[x & 0x3FF] = i
        if i & 3 == 3:
            when, _ = heapq.heappop(heap)
            checksum += when
            n = when
            while True:            # a uvarint encoder, as the codec has
                byte = n & 0x7F
                n >>= 7
                if n:
                    out.append(byte | 0x80)
                else:
                    out.append(byte)
                    break
        if len(out) > 4096:
            checksum += len(out)
            del out[:]
    return checksum + len(seen) + len(heap)


def calibrate() -> float:
    """Host seconds one reference loop takes right now."""
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0
