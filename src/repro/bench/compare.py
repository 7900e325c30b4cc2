"""The bench regression gate: diff two ``BENCH_obs.json`` artifacts.

``python -m repro.bench compare old.json new.json --tolerance 0.1``
compares every experiment's table, row by row and field by field:

* non-numeric fields (strings, booleans — variant names, ``spec_ok``
  flags) must match exactly: a flipped conformance bit is a regression
  at any tolerance;
* numeric fields may deviate by at most ``tolerance`` as a fraction of
  the old value (``|new - old| / |old|``); a value appearing where the
  baseline had 0 is treated as an unbounded deviation.

Every field of every row is gated: a table holds simulated numbers
only, so there is nothing machine-dependent to look past.

Numeric deviations beyond tolerance are classified by the field's
*direction* (:func:`metric_direction`): a latency that shrank or a
speedup that grew is an **improvement**, not a regression.  Improvements
never fail the gate, but they are printed loudly — a baseline that keeps
reporting "you got faster" has rotted and should be regenerated so the
gate can catch the *next* regression from the new, better level.

Exit status: 0 clean, 1 regressions found (0 with ``--warn-only``),
2 usage/loading errors.  Experiments present only in the baseline are
regressions (coverage must not silently shrink); experiments only in
the new artifact are reported as info and pass.
"""

from __future__ import annotations

import numbers

from .artifact import load_artifact

__all__ = ["compare_artifacts", "compare_files", "main",
           "metric_direction", "EXPLICIT_DIRECTIONS"]

#: Substrings marking a field where *smaller* is better.
_LOWER_BETTER = ("time", "latency", "cost", "staleness", "lag", "viol",
                 "ghost", "dangling", "orphan", "message", "bytes", "rpc",
                 "failure", "retries", "blocked", "abort", "miss",
                 "p50", "p95", "p99")
#: Substrings marking a field where *larger* is better.
_HIGHER_BETTER = ("speedup", "yield", "ok", "hit", "completion", "throughput",
                  "avail", "acked", "healed", "conform")

#: Exact metric names (and their dotted sub-families) with a declared
#: direction, checked before the substring heuristics.  The wire's
#: bytes family is registered explicitly so ``net.bytes_sent.object``
#: and friends gate lower-is-better by declaration, not by a substring
#: accident — and the codec's naive/compact ratio gates higher-is-better
#: even though "compact" matches no heuristic marker.
EXPLICIT_DIRECTIONS = {
    "net.bytes_sent": "lower",
    "net.bytes_received": "lower",
    "net.link.queue_delay": "lower",
    "bytes_sent": "lower",
    "bytes_received": "lower",
    "bytes_per_member": "lower",
    "queue_delay": "lower",
    "naive_over_compact": "higher",
}


def metric_direction(key: str) -> str:
    """Which way a numeric field is allowed to move and still be good.

    Returns ``"lower"`` (smaller is better), ``"higher"`` (larger is
    better), or ``"neutral"`` (no idea — any out-of-tolerance move is a
    regression, the conservative default).  Exact names in
    :data:`EXPLICIT_DIRECTIONS` win (a dotted prefix match covers
    per-family counters like ``net.bytes_sent.membership``); otherwise
    matching is on substrings of the lowercased key, lower-better
    first: ``viol`` in a name trumps ``speedup`` because a violation
    count must never be read as good.
    """
    lowered = key.lower()
    for name, direction in EXPLICIT_DIRECTIONS.items():
        if lowered == name or lowered.startswith(name + "."):
            return direction
    if any(mark in lowered for mark in _LOWER_BETTER):
        return "lower"
    if any(mark in lowered for mark in _HIGHER_BETTER):
        return "higher"
    return "neutral"


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _deviation(old: float, new: float) -> float:
    """Relative deviation of ``new`` from ``old`` (inf when 0 → nonzero)."""
    if old == new:
        return 0.0
    if old == 0:
        return float("inf")
    return abs(new - old) / abs(old)


def compare_rows(exp_id: str, index: int, old_row: dict, new_row: dict,
                 tolerance: float, regressions: list[str],
                 improvements: list[str] | None = None) -> None:
    for key in old_row:
        if key not in new_row:
            regressions.append(
                f"{exp_id} row {index}: field {key!r} disappeared")
            continue
        old_value, new_value = old_row[key], new_row[key]
        if _is_number(old_value) and _is_number(new_value):
            deviation = _deviation(old_value, new_value)
            if deviation > tolerance:
                direction = metric_direction(key)
                got_better = (
                    (direction == "lower" and new_value < old_value)
                    or (direction == "higher" and new_value > old_value))
                message = (
                    f"{exp_id} row {index}: {key} {old_value} -> {new_value} "
                    f"(deviation {deviation:.1%} > tolerance {tolerance:.1%})")
                if got_better and improvements is not None:
                    improvements.append(message)
                else:
                    regressions.append(message)
        elif old_value != new_value:
            regressions.append(
                f"{exp_id} row {index}: {key} {old_value!r} -> {new_value!r}")


def compare_artifacts(old: dict, new: dict, tolerance: float = 0.1
                      ) -> tuple[list[str], list[str], list[str]]:
    """Diff two artifacts; returns (regressions, improvements, info).

    Regressions fail the gate.  Improvements — numeric fields that moved
    beyond tolerance in their *good* direction (see
    :func:`metric_direction`) — pass it, but signal the baseline has
    rotted and should be regenerated.
    """
    regressions: list[str] = []
    improvements: list[str] = []
    info: list[str] = []
    old_experiments = {e["id"]: e for e in old.get("experiments", [])}
    new_experiments = {e["id"]: e for e in new.get("experiments", [])}
    for exp_id, old_exp in old_experiments.items():
        new_exp = new_experiments.get(exp_id)
        if new_exp is None:
            regressions.append(f"{exp_id}: present in baseline, missing in new run")
            continue
        old_rows, new_rows = old_exp.get("rows", []), new_exp.get("rows", [])
        if len(old_rows) != len(new_rows):
            regressions.append(
                f"{exp_id}: row count {len(old_rows)} -> {len(new_rows)}")
            continue
        for index, (old_row, new_row) in enumerate(zip(old_rows, new_rows)):
            compare_rows(exp_id, index, old_row, new_row, tolerance,
                         regressions, improvements)
    for exp_id in new_experiments:
        if exp_id not in old_experiments:
            info.append(f"{exp_id}: new experiment (not in baseline), skipped")
    return regressions, improvements, info


def compare_files(old_path: str, new_path: str, tolerance: float = 0.1
                  ) -> tuple[list[str], list[str], list[str]]:
    return compare_artifacts(load_artifact(old_path), load_artifact(new_path),
                             tolerance=tolerance)


def main(argv: list[str]) -> int:
    """``python -m repro.bench compare OLD NEW [--tolerance F]
    [--warn-only]``."""
    tolerance = 0.1
    warn_only = False
    paths: list[str] = []
    it = iter(argv)
    for arg in it:
        if arg == "--tolerance":
            value = next(it, None)
            if value is None:
                print("--tolerance needs a value", flush=True)
                return 2
            tolerance = float(value)
        elif arg.startswith("--tolerance="):
            tolerance = float(arg.split("=", 1)[1])
        elif arg == "--warn-only":
            warn_only = True
        elif arg.startswith("-"):
            print(f"unknown compare option {arg!r}", flush=True)
            return 2
        else:
            paths.append(arg)
    if len(paths) != 2 or tolerance < 0:
        print("usage: python -m repro.bench compare OLD.json NEW.json "
              "[--tolerance F] [--warn-only]", flush=True)
        return 2
    try:
        regressions, improvements, info = compare_files(
            paths[0], paths[1], tolerance=tolerance)
    except (OSError, ValueError) as exc:
        print(f"compare: {exc}", flush=True)
        return 2
    for note in info:
        print(f"note: {note}")
    if improvements:
        print(f"IMPROVED: {len(improvements)} metric(s) beat the baseline "
              f"beyond tolerance {tolerance:.1%} — regenerate the baseline "
              f"so the gate tracks the new level")
        for improvement in improvements:
            print(f"  {improvement}")
    if regressions:
        verdict = "WARN" if warn_only else "FAIL"
        print(f"{verdict}: {len(regressions)} regression(s) beyond "
              f"tolerance {tolerance:.1%}")
        for regression in regressions:
            print(f"  {regression}")
        return 0 if warn_only else 1
    if improvements:
        print("OK: no regressions (improvements noted above)")
    else:
        print(f"OK: artifacts agree within tolerance {tolerance:.1%}")
    return 0
