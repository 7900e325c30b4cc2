#!/usr/bin/env python3
"""Compare two ``BENCH_perf.json`` artifacts, row by row.

    python3 perf/compare.py parent.json change.json

One row per (workload, metric): both medians, the quartiles where a
metric has samples, the bound, and a verdict —

* ``same``: the change is within the bound either way;
* ``worse`` / ``better``: the median moved past the bound;
* ``unresolved``: the run-to-run spread is wider than the bound and the
  two sides' samples interleave, so the data cannot say;
* ``differs``: a metric that must repeat exactly did not;
* ``n/a``: the metric is not defined on that workload.

End-to-end bounds and directions come from ``BENCHMARK.json``; the
simulated-side bounds are fixed here.  Between two artifacts of the same
commit (and in ``run.py --selfcheck``) the bounds of :data:`EXACT` do
not apply: the call count and every simulated-side value must be equal,
or the row ``differs``.  Exit status 1 when any row is ``worse``, or
``differs`` between two artifacts of the same commit.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

__all__ = ["compare", "render", "load_bounds"]

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: simulated-side metrics: (bound, absolute?) — all lower-is-better
SIM_BOUNDS = {
    "sim_op_p50_s": (0.02, False),
    "sim_op_p95_s": (0.02, False),
    "sim_bytes_per_op": (0.02, False),
    "failed_op_share": (0.005, True),
}

#: what one commit must reproduce bit for bit, besides ``sim_digest``
EXACT = ("pycalls_per_op",) + tuple(SIM_BOUNDS)


def load_bounds() -> dict[str, tuple[float, str]]:
    """``{metric: (bound, better)}`` for the end-to-end metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}


def _verdict(a: float, b: float, bound: float, better: str,
             absolute: bool = False, a_samples=(), b_samples=()) -> str:
    if a == 0 and b == 0:
        return "n/a" if not absolute else "same"
    worsening = (b - a) if better == "lower" else (a - b)
    if not absolute:
        worsening /= abs(a) if a else abs(b)
    if len(a_samples) > 1 and len(b_samples) > 1:
        spread = max(_iqr_share(a_samples), _iqr_share(b_samples))
        interleave = not (min(b_samples) > max(a_samples)
                          or max(b_samples) < min(a_samples))
        if spread > bound and interleave:
            return "unresolved"
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "same"


def _iqr_share(samples) -> float:
    q1, _, q3 = statistics.quantiles(samples, n=4)
    median = statistics.median(samples)
    return (q3 - q1) / median if median else 0.0


def compare(a: dict, b: dict, exact: bool = False) -> list[dict]:
    """Rows for every (workload, metric) the two artifacts share.

    ``exact``: both artifacts are of one commit, so :data:`EXACT` metrics
    are compared with ``==`` instead of their bounds.
    """
    bounds = load_bounds()
    rows = []
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            continue
        for metric, (bound, better) in bounds.items():
            if metric not in wa["end_to_end"]:
                # ok_op_share: the driver's form of failed_op_share,
                # which has its own row below.
                continue
            va, vb = wa["end_to_end"][metric], wb["end_to_end"][metric]
            samples = ((wa["norm_ops_per_s_samples"],
                        wb["norm_ops_per_s_samples"])
                       if metric == "norm_ops_per_s" else ((), ()))
            row = {"workload": name, "metric": metric, "a": va, "b": vb,
                   "bound": bound, "better": better,
                   "verdict": _verdict(va, vb, bound, better,
                                       a_samples=samples[0],
                                       b_samples=samples[1])}
            if metric == "norm_ops_per_s":
                row["a_q"] = (wa["norm_ops_per_s_q1"], wa["norm_ops_per_s_q3"])
                row["b_q"] = (wb["norm_ops_per_s_q1"], wb["norm_ops_per_s_q3"])
            rows.append(row)
        for metric, (bound, absolute) in SIM_BOUNDS.items():
            va, vb = wa["sim"][metric], wb["sim"][metric]
            rows.append({"workload": name, "metric": metric, "a": va,
                         "b": vb, "bound": bound, "better": "lower",
                         "absolute": absolute,
                         "verdict": _verdict(va, vb, bound, "lower",
                                             absolute)})
        same = wa["sim_digest"] == wb["sim_digest"]
        rows.append({"workload": name, "metric": "sim_digest",
                     "a": wa["sim_digest"][:12], "b": wb["sim_digest"][:12],
                     "bound": 0.0, "better": "equal",
                     "verdict": "same" if same else "differs"})
    if exact:
        for row in rows:
            if row["metric"] in EXACT and row["a"] != row["b"]:
                row["verdict"] = "differs"
    return rows


def _num(value) -> str:
    return value if isinstance(value, str) else f"{value:.6g}"


def render(rows: list[dict]) -> str:
    lines = [f"{'workload':<16} {'metric':<18} {'a':>12} {'b':>12} "
             f"{'bound':>7}  verdict"]
    for r in rows:
        bound = (f"+{r['bound']:g}" if r.get("absolute")
                 else f"{r['bound'] * 100:g}%")
        line = (f"{r['workload']:<16} {r['metric']:<18} {_num(r['a']):>12} "
                f"{_num(r['b']):>12} {bound:>7}  {r['verdict']}")
        if "a_q" in r:
            line += (f"  [a q1..q3 {_num(r['a_q'][0])}..{_num(r['a_q'][1])}, "
                     f"b {_num(r['b_q'][0])}..{_num(r['b_q'][1])}]")
        lines.append(line)
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        a = json.load(fh)
    with open(argv[1]) as fh:
        b = json.load(fh)
    for key in ("seed", "seconds", "min_passes", "python", "nproc"):
        if a["meta"].get(key) != b["meta"].get(key):
            print(f"note: {key} differs: {a['meta'].get(key)} vs "
                  f"{b['meta'].get(key)} — not the same experiment")
    same_commit = (a["meta"]["commit"] == b["meta"]["commit"] != "unknown")
    rows = compare(a, b, exact=same_commit)
    print(render(rows))
    bad = [r for r in rows if r["verdict"] == "worse"
           or (r["verdict"] == "differs" and same_commit)]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
