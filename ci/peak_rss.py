#!/usr/bin/env python3
"""Run a command; report its wall time and peak RSS; fail above a bound.

    python3 ci/peak_rss.py --max-mib 300 -- python -m repro.bench

The command inherits stdin, stdout and stderr, so its output passes
through untouched (``> tables.txt`` still captures exactly what the
command printed).  Once it exits, one line goes to stderr:

    peak_rss: 226.9 MiB (bound 300 MiB), wall 51.3 s

The peak is the command's maximum resident set size as the kernel
reports it for this script's waited-for children (``getrusage``'s
``ru_maxrss``; the command is the only one, and a descendant it waited
for counts too).

Exit status: the command's own when it failed, else 1 when the peak is
above ``--max-mib``, else 0.
"""

from __future__ import annotations

import argparse
import resource
import subprocess
import sys
import time


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-mib", type=float, required=True,
                        help="fail when the command's peak RSS is above this")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="the command to run, after --")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no command given")

    start = time.perf_counter()
    code = subprocess.run(command).returncode
    wall = time.perf_counter() - start
    # the one child this script waited for (Linux reports KiB)
    peak_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"peak_rss: {peak_mib:.1f} MiB (bound {args.max_mib:g} MiB), "
          f"wall {wall:.1f} s", file=sys.stderr)
    if code != 0:
        return code if code > 0 else 1      # < 0: killed by a signal
    if peak_mib > args.max_mib:
        print(f"peak_rss: {peak_mib:.1f} MiB is above the bound of "
              f"{args.max_mib:g} MiB", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
