"""The bench gate: two ``BENCH_obs.json`` artifacts must be equal.

``python -m repro.bench compare OLD.json NEW.json`` compares, per
experiment id, the five fields an experiment writes — ``title``,
``columns``, ``rows`` (every key of either side's row), ``notes`` and
``metrics`` — and prints each one that differs.  Every number in an
artifact is a simulated one, so there is nothing machine-dependent to
look past and no direction in which a move is welcome: a change that
means to move a table regenerates the baseline and says why.

Exit status: 0 equal, 1 any difference, 2 usage/loading errors.
Experiments present only in OLD are differences (coverage must not
silently shrink); experiments only in NEW are printed as notes and pass.
"""

from __future__ import annotations

import json

from .artifact import load_artifact

__all__ = ["compare_artifacts", "compare_files", "main"]


def _same(old, new) -> bool:
    """Equal as the artifact spells them: a NaN (a table's ``-``) is the
    NaN beside it, and ``1`` is not ``1.0``."""
    return json.dumps(old, sort_keys=True) == json.dumps(new, sort_keys=True)


def _compare_fields(where: str, old: dict, new: dict,
                    differences: list[str]) -> None:
    """One row, or one ``metrics`` block: every key of either side."""
    for key in dict.fromkeys((*old, *new)):
        if key not in new:
            differences.append(f"{where}: field {key!r} disappeared")
        elif key not in old:
            differences.append(f"{where}: field {key!r} appeared")
        elif not _same(old[key], new[key]):
            differences.append(
                f"{where}: {key} {old[key]!r} -> {new[key]!r}")


def compare_artifacts(old: dict, new: dict) -> tuple[list[str], list[str]]:
    """Diff two artifacts; returns (differences, notes).  Any difference
    fails the gate."""
    differences: list[str] = []
    old_experiments = {e["id"]: e for e in old.get("experiments", [])}
    new_experiments = {e["id"]: e for e in new.get("experiments", [])}
    for exp_id, old_exp in old_experiments.items():
        new_exp = new_experiments.get(exp_id)
        if new_exp is None:
            differences.append(
                f"{exp_id}: present in baseline, missing in new run")
            continue
        for field in ("title", "columns", "notes"):
            if not _same(old_exp.get(field), new_exp.get(field)):
                differences.append(f"{exp_id}: {field} {old_exp.get(field)!r} "
                                   f"-> {new_exp.get(field)!r}")
        old_rows, new_rows = old_exp.get("rows", []), new_exp.get("rows", [])
        if len(old_rows) != len(new_rows):
            differences.append(
                f"{exp_id}: row count {len(old_rows)} -> {len(new_rows)}")
        else:
            for index, (old_row, new_row) in enumerate(zip(old_rows, new_rows)):
                _compare_fields(f"{exp_id} row {index}", old_row, new_row,
                                differences)
        _compare_fields(f"{exp_id} metrics", old_exp.get("metrics", {}),
                        new_exp.get("metrics", {}), differences)
    notes = [f"{exp_id}: new experiment (not in baseline), skipped"
             for exp_id in new_experiments if exp_id not in old_experiments]
    return differences, notes


def compare_files(old_path: str, new_path: str) -> tuple[list[str], list[str]]:
    return compare_artifacts(load_artifact(old_path), load_artifact(new_path))


def main(argv: list[str]) -> int:
    """``python -m repro.bench compare OLD NEW``."""
    options = [arg for arg in argv if arg.startswith("-")]
    if options:
        print(f"unknown compare option {options[0]!r}", flush=True)
        return 2
    if len(argv) != 2:
        print("usage: python -m repro.bench compare OLD.json NEW.json",
              flush=True)
        return 2
    try:
        differences, notes = compare_files(*argv)
    except (OSError, ValueError) as exc:
        print(f"compare: {exc}", flush=True)
        return 2
    for note in notes:
        print(f"note: {note}")
    if differences:
        print(f"FAIL: {len(differences)} field(s) differ")
        for difference in differences:
            print(f"  {difference}")
        return 1
    print("OK: artifacts are equal")
    return 0
