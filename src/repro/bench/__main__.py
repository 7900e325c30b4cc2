"""Run experiments and print their tables: ``python -m repro.bench``.

Usage::

    python -m repro.bench                     # all experiments, ASCII tables
                                              # (stdout is experiments_output.txt)
    python -m repro.bench E1 e4a              # a subset (ids in any case)
    python -m repro.bench --obs BENCH_obs.json
                                              # also write the BENCH_obs artifact
                                              # (all ids: ci/bench_baseline.json)
"""

from __future__ import annotations

import sys
from typing import Optional

from . import ALL_EXPERIMENTS
from .artifact import write_artifact
from .report import ExperimentResult


def main(argv: list[str]) -> int:
    obs_path: Optional[str] = None
    ids: list[str] = []
    it = iter(argv)
    for arg in it:
        if arg == "--obs":
            obs_path = next(it, None)
            if obs_path is None:
                print("--obs needs a path", file=sys.stderr)
                return 2
        elif arg.startswith("--obs="):
            obs_path = arg.split("=", 1)[1]
        elif arg in ("--help", "-h"):
            print(__doc__)
            print(f"experiments: {', '.join(ALL_EXPERIMENTS)}")
            return 0
        else:
            ids.append(arg)
    # Ids are mixed-case ("E21a"): match whatever case the user typed.
    by_folded = {eid.casefold(): eid for eid in ALL_EXPERIMENTS}
    wanted = ([by_folded.get(arg.casefold(), arg) for arg in ids]
              or list(ALL_EXPERIMENTS))
    unknown = [w for w in wanted if w not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiment id(s): {unknown}; "
              f"known: {list(ALL_EXPERIMENTS)}", file=sys.stderr)
        return 2
    records: list[dict] = []
    for eid in wanted:
        result: ExperimentResult = ALL_EXPERIMENTS[eid]()
        print(result)
        print()
        records.append(result.to_obs())
    if obs_path is not None:
        path = write_artifact(obs_path, records,
                              meta={"source": "python -m repro.bench"})
        # stderr: stdout is the tables and nothing else, with or without --obs
        print(f"wrote {path} ({len(records)} experiments)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
