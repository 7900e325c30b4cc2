#!/usr/bin/env python3
"""Alternating host-speed pairs between two checkouts.

    python3 ci/abba.py PARENT_DIR CHANGE_DIR --workload W --pairs N --seconds S

A pair is one ``python3 perf/run.py --workload W --seed 0 --seconds S``
in each checkout, run one after the other, never at once.  Which side
goes first alternates from pair to pair (parent, change; change,
parent; ...), so a machine that speeds up or slows down during the
session does not favour one side.  Each pair's line gives both sides'
``norm_ops_per_s`` and which side won; the last lines give how many
pairs the change won and both sides' medians and quartiles.  The script
reads only the last line ``perf/run.py`` prints and writes no file
itself; each run leaves its usual trace under ``perf/out/`` (ignored by
git) in its checkout.

Exit 0 once every run finished, 1 if a run failed or reported
``"correct": false``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

METRIC = "norm_ops_per_s"


def run_once(checkout: str, workload: str, seconds: float) -> float:
    """One run's ``norm_ops_per_s`` (higher is faster)."""
    done = subprocess.run(
        [sys.executable, os.path.join("perf", "run.py"), "--workload",
         workload, "--seed", "0", "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"perf/run.py failed in {checkout}:\n{done.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"perf/run.py in {checkout} reported correct: false")
    return result["metrics"][METRIC]["value"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=5.0)
    args = parser.parse_args(argv)

    sides = {"parent": args.parent, "change": args.change}
    samples: dict[str, list[float]] = {"parent": [], "change": []}
    wins = 0
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            samples[side].append(run_once(sides[side], args.workload,
                                          args.seconds))
        parent, change = samples["parent"][-1], samples["change"][-1]
        wins += change > parent
        print(f"pair {pair + 1:2d} ({order[0]} first)  parent {parent:10.1f}"
              f"  change {change:10.1f}  "
              f"{'change' if change > parent else 'parent'} wins", flush=True)
    print(f"{args.workload}: change won {wins} of {args.pairs} pairs")
    for side in ("parent", "change"):
        values = samples[side]
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else values * 3)
        print(f"{side} median {METRIC} {statistics.median(values):.1f}"
              f"  (q1 {q1:.1f}, q3 {q3:.1f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
