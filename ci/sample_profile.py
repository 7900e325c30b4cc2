#!/usr/bin/env python3
"""A sampling profile of one benchmark workload, by ``file:function``.

    python3 ci/sample_profile.py pop_ramp             # twenty passes
    python3 ci/sample_profile.py drain_audit --passes 5

Why this exists beside ``perf/run.py``'s counted pass: ``cProfile``
counts *calls*, and charges its own hook to each one.  Work the
interpreter does without a call it can see — ``object.__setattr__`` and
``__hash__`` slot wrappers, a dataclass's generated ``__init__`` filling
nine fields, a ``frozenset(...)`` hashing every member — is attributed
to nobody, while call-heavy Python (many small frames) reads dearer than
it is.  A ``SIGPROF`` sampler interrupts on CPU time and blames whatever
frame is executing, so the two disagree exactly where the cost sits
below the call count.  Profile with both; claim a gain with
``perf/run.py`` only (the sampler's wall is never a speed).

The workload is ``perf/workloads.py``'s ``WORKLOADS[W]``, imported, not
edited: same ``setup(seed, 1.0)`` and ``run(state)`` the benchmark
times, with only ``run`` sampled.  Self share is the sampled frame's;
inclusive share counts a ``file:function`` once per sample whose stack
holds it.

How to read it: CPython runs a signal handler at the next point the
interpreter checks for one — a function's entry, a loop's back edge, the
return from a C call — so a sample is billed to the frame that reaches
such a point next.  C code is billed to the Python frame that called it
(a ``frozenset(listing)`` to its caller, or to the ``__hash__`` it calls
back into); a stretch of straight-line Python partly to the function it
calls next.  Shares are good to about a point at a thousand samples:
enough to rank, never to claim.
"""

from __future__ import annotations

import argparse
import collections
import gc
import os
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(ROOT, "src"), os.path.join(ROOT, "perf")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

#: CPU seconds between samples, as asked for: the kernel rounds an
#: ITIMER_PROF period up to its tick (4 ms at HZ=250), so the header
#: line reports the period the samples actually came at
INTERVAL_S = 0.001
#: the seed every pass is set up with, and the rows each table prints
SEED = 0
TOP = 20


def _where(code) -> str:
    path = code.co_filename
    marker = os.sep + "repro" + os.sep
    if marker in path:
        path = path[path.rindex(marker) + len(marker):]
    elif path.startswith(ROOT):
        path = os.path.relpath(path, ROOT)
    else:
        path = os.path.basename(path)
    return f"{path}:{code.co_name}"


class Sampler:
    """Counts, per ``file:function``, the samples it was executing in
    (self) and the samples it was on the stack of (inclusive)."""

    def __init__(self) -> None:
        self.samples = 0
        self.self_hits: collections.Counter = collections.Counter()
        self.inclusive_hits: collections.Counter = collections.Counter()

    def _on_sample(self, signum, frame) -> None:
        self.samples += 1
        self.self_hits[frame.f_code] += 1
        seen = set()
        while frame is not None:
            seen.add(frame.f_code)
            frame = frame.f_back
        self.inclusive_hits.update(seen)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGPROF, self._on_sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def table(self, hits: collections.Counter) -> list[str]:
        by_name: collections.Counter = collections.Counter()
        for code, count in hits.items():
            by_name[_where(code)] += count
        return [f"  {100.0 * count / self.samples:5.1f}%  {name}"
                for name, count in by_name.most_common(TOP)]


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--passes", type=int, default=20)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    sampler = Sampler()
    cpu_s = 0.0
    for _ in range(args.passes):
        gc.collect()
        state = workload.setup(SEED, 1.0)
        cpu0 = time.process_time()
        with sampler:
            outcome = workload.run(state)
        cpu_s += time.process_time() - cpu0
        del state
        if outcome.problems:
            print(f"CHECK FAILED: {sorted(set(outcome.problems))}")
            return 1
    if not sampler.samples:
        print("no samples: the passes were shorter than one interval")
        return 1
    print(f"{args.workload} seed {SEED}: {sampler.samples} samples "
          f"over {args.passes} passes, one per "
          f"{1e3 * cpu_s / sampler.samples:.2f} ms of CPU")
    print("self:")
    print("\n".join(sampler.table(sampler.self_hits)))
    print("inclusive:")
    print("\n".join(sampler.table(sampler.inclusive_hits)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
