"""E19 — the batched, pipelined fetch engine (window / batch sweeps).

Every read path now drains through :class:`~repro.store.fetchplan.FetchPipeline`:
a sliding window of in-flight fetches, same-home candidates coalesced
into one ``get_objects`` multi-get.  E19 measures what that buys on the
WAN topology against the serial baseline (``window=1, batch=1`` — one
round-trip per element, the pre-pipeline read path), and that it buys
it without weakening semantics: every drain in the sweep is checked for
Figure 6 conformance and must report zero violations.

Two sweeps against the same seeded worlds:

* **window sweep** — window ∈ {2, 4, 8, 16} at ``batch=4``: how much
  concurrency the sliding window converts into wall-clock;
* **batch sweep** — batch ∈ {1, 2, 8} at ``window=8``: what same-home
  coalescing adds on top (one service-time charge per multi-get).
"""

from __future__ import annotations

from typing import Sequence

from ..wan.workload import ScenarioSpec, build_scenario
from ..weaksets import DynamicSet
from .harness import drain
from .report import ExperimentResult

__all__ = ["run_fetchpipe"]


def _one_drain(window: int, batch: int, seed: int, members: int):
    """One seeded fig6 drain at the given pipeline shape."""
    spec = ScenarioSpec(n_clusters=4, cluster_size=3, n_members=members,
                        policy="any", heavy_tail=False)
    scenario = build_scenario(spec, seed=seed)
    ws = DynamicSet(scenario.world, scenario.client, spec.coll_id,
                    fetch_window=window, fetch_batch=batch)
    drained = drain(scenario, ws.elements())
    return drained, (0 if ws.audit().conformant else 1)


def run_fetchpipe(members: int = 24,
                  seeds: Sequence[int] = range(3)) -> ExperimentResult:
    """E19: drain cost vs pipeline window and batch size."""
    result = ExperimentResult(
        "E19", "Fetch pipeline: batched drain vs serial (fig6, WAN)",
        columns=["mode", "window", "batch", "time_to_first", "total_time",
                 "speedup_vs_serial", "violations"],
        notes="serial = window 1 / batch 1, one round-trip per element; "
              "speedup is serial total over batched total on the same "
              "seeds; violations must stay 0 — pipelining may not "
              "weaken fig6",
    )

    def sweep_point(window: int, batch: int):
        tt_first = total = 0.0
        violations = 0
        for seed in seeds:
            drained, bad = _one_drain(window, batch, seed, members)
            tt_first += drained.time_to_first
            total += drained.total_time
            violations += bad
        n = len(seeds)
        return tt_first / n, total / n, violations

    # the serial row comes first: every speedup is against its total
    points = ([("serial", 1, 1)]
              + [("window-sweep", window, 4) for window in (2, 4, 8, 16)]
              + [("batch-sweep", 8, batch) for batch in (1, 2, 8)])
    for mode, window, batch in points:
        first, total, bad = sweep_point(window, batch)
        if mode == "serial":
            serial_total = total
        result.add(mode=mode, window=window, batch=batch,
                   time_to_first=first, total_time=total,
                   speedup_vs_serial=serial_total / total, violations=bad)
    result.metrics["batched_vs_serial_speedup"] = {
        f"window{r['window']}_batch{r['batch']}": r["speedup_vs_serial"]
        for r in result.rows if r["mode"] == "window-sweep"}
    return result
