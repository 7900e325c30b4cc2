#!/usr/bin/env python3
"""The refactor protocol as one command.

    python3 ci/check_digests.py            # compare against ci/sim_digests.json
    python3 ci/check_digests.py --update   # rewrite it, saying what is accepted

Runs ``python3 perf/run.py --workload W --seed S --seconds 2`` for every
workload ``BENCHMARK.json`` declares at seeds 0 and 1, and compares what
each run prints for ``sim_digest`` and the exact simulated-side metrics
with the committed values.  Equal everywhere means a change altered only
what the simulator costs us, never what the simulated system did (README,
"Performance & refactor protocol").

What the simulator costs us is held too, from above: each run's exact
``pycalls_per_op`` may not exceed the committed count by more than the
bound ``BENCHMARK.json`` sets for it.  A ceiling, not an equality — a
cheaper tree passes, and ``--update`` lowers the ceiling to it.  Every
run's line shows both (``pop_ramp@0 <digest> 1392.57 -> 1005.95
calls/op``: committed, then measured), so a log says how much head-room
a tree has.  The counts are those of the Python the CI job pins (3.11).

``--update`` runs the same comparison before it writes and prints every
``MOVED`` line plus one ``LOWERED`` (or ``RAISED``) line per ceiling it
changes, so its log tells "I only lowered a ceiling" from "I accepted a
behaviour move".

The runs are independent processes and nothing compared here depends on
load, so they run ``os.cpu_count()`` at a time.
Exit 0 = equal and under the ceiling, 1 = something moved or crept.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIGESTS = os.path.join(ROOT, "ci", "sim_digests.json")
SEEDS = (0, 1)
#: printed by every run as "<workload> <key> <value> <unit>"; all exact
KEYS = ("sim_digest", "sim_op_p50_s", "sim_op_p95_s", "sim_bytes_per_op",
        "failed_op_share")
#: exact too, but host-side: compared as a ceiling
CALLS = "pycalls_per_op"
PRINTED = KEYS + (CALLS,)


def measure(workload: str, seed: int) -> dict[str, str]:
    """One short run's exact values (simulated side and call count), as
    printed."""
    done = subprocess.run(
        [sys.executable, os.path.join("perf", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "2"],
        cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"perf/run.py --workload {workload} --seed {seed} failed:\n"
                 f"{done.stdout}{done.stderr}")
    row = {}
    for line in done.stdout.splitlines():
        parts = line.split()
        if len(parts) >= 3 and parts[0] == workload and parts[1] in PRINTED:
            row[parts[1]] = parts[2]
    missing = [key for key in PRINTED if key not in row]
    if missing:
        sys.exit(f"{workload} seed {seed}: run printed no {missing}")
    return row


def compare(expected: dict, measured: dict,
            calls_bound: float) -> tuple[list[str], list[str]]:
    """``(moved, crept)``: a line per exact value that differs from the
    committed one (and per committed run not measured), and a line per
    run whose call count is over its committed ceiling by more than
    ``calls_bound``.  A run with no committed count has no ceiling to be
    under: it is reported moved, never crept."""
    moved = [f"{run} {key}: {expected.get(run, {}).get(key)} -> {row[key]}"
             for run, row in measured.items() for key in KEYS
             if expected.get(run, {}).get(key) != row[key]]
    moved += [f"{run}: in ci/sim_digests.json but not run"
              for run in expected if run not in measured]
    crept = [f"{run} {CALLS}: {ceiling} -> {row[CALLS]} "
             f"(ceiling +{calls_bound:.0%})"
             for run, row in measured.items()
             if (ceiling := expected.get(run, {}).get(CALLS)) is not None
             and float(row[CALLS]) > float(ceiling) * (1 + calls_bound)]
    return moved, crept


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite ci/sim_digests.json from this tree")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    calls_bound = next(m["bound"] for m in benchmark["end_to_end"]
                       if m["name"] == CALLS)
    runs = [(w["name"], seed) for w in benchmark["workloads"] for seed in SEEDS]
    with open(DIGESTS) as fh:
        expected = json.load(fh)
    measured = {}
    with ThreadPoolExecutor(max_workers=os.cpu_count()) as pool:
        for (workload, seed), row in zip(
                runs, pool.map(lambda run: measure(*run), runs)):
            run = f"{workload}@{seed}"
            measured[run] = row
            # committed -> measured: how far under its ceiling the tree is
            print(f"{run} {row['sim_digest']} "
                  f"{expected.get(run, {}).get(CALLS, '?')} -> {row[CALLS]} "
                  "calls/op", flush=True)
    moved, crept = compare(expected, measured, calls_bound)
    for line in moved:
        print(f"MOVED {line}")
    if args.update:
        # the log of an update says what it accepted: every behaviour
        # move above, and every ceiling it changes
        for run, row in measured.items():
            old = expected.get(run, {}).get(CALLS)
            if old != row[CALLS]:
                lowered = old is not None and float(row[CALLS]) < float(old)
                print(f"{'LOWERED' if lowered else 'RAISED'} {run} {CALLS}: "
                      f"{old} -> {row[CALLS]}")
        with open(DIGESTS, "w") as fh:
            json.dump(measured, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {os.path.relpath(DIGESTS, ROOT)}")
        return 0
    for line in crept:
        print(f"CREPT {line}")
    print("simulated behaviour " + ("MOVED" if moved else "unchanged")
          + ", host cost " + ("CREPT" if crept else "under its ceiling")
          + f" on {len(measured)} runs")
    return 1 if moved or crept else 0


if __name__ == "__main__":
    sys.exit(main())
