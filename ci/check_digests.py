#!/usr/bin/env python3
"""The refactor protocol as one command.

    python3 ci/check_digests.py            # compare against ci/sim_digests.json
    python3 ci/check_digests.py --update   # rewrite it (behaviour meant to move)

Runs ``python3 perf/run.py --workload W --seed S --seconds 2`` for every
workload ``BENCHMARK.json`` declares at seeds 0 and 1, and compares what
each run prints for ``sim_digest`` and the exact simulated-side metrics
with the committed values.  Equal everywhere means a change altered only
what the simulator costs us, never what the simulated system did (README,
"Performance & refactor protocol").  Exit 0 = equal, 1 = something moved.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIGESTS = os.path.join(ROOT, "ci", "sim_digests.json")
SEEDS = (0, 1)
#: printed by every run as "<workload> <key> <value> <unit>"; all exact
KEYS = ("sim_digest", "sim_op_p50_s", "sim_op_p95_s", "sim_bytes_per_op",
        "failed_op_share")


def measure(workload: str, seed: int) -> dict[str, str]:
    """One short run's simulated-side values, as printed."""
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
        if len(parts) >= 3 and parts[0] == workload and parts[1] in KEYS:
            row[parts[1]] = parts[2]
    missing = [key for key in KEYS if key not in row]
    if missing:
        sys.exit(f"{workload} seed {seed}: run printed no {missing}")
    return row


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite ci/sim_digests.json from this tree")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    measured = {}
    for workload in workloads:
        for seed in SEEDS:
            row = measured[f"{workload}@{seed}"] = measure(workload, seed)
            print(f"{workload}@{seed} {row['sim_digest']}", flush=True)
    if args.update:
        with open(DIGESTS, "w") as fh:
            json.dump(measured, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {os.path.relpath(DIGESTS, ROOT)}")
        return 0
    with open(DIGESTS) as fh:
        expected = json.load(fh)
    moved = [f"{run} {key}: {expected.get(run, {}).get(key)} -> {row[key]}"
             for run, row in measured.items() for key in KEYS
             if expected.get(run, {}).get(key) != row[key]]
    moved += [f"{run}: in ci/sim_digests.json but not run"
              for run in expected if run not in measured]
    for line in moved:
        print(f"MOVED {line}")
    print("simulated behaviour " + ("MOVED" if moved else "unchanged")
          + f" on {len(measured)} runs")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
