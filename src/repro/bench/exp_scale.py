"""E12 — scale sweep: simulated cost and message traffic vs system size.

Not a claim from the paper, but the sanity check any systems evaluation
owes its readers: how do the implementations' costs *scale*?  We sweep
the set size at fixed topology and report, per semantics, the simulated
completion time, messages sent, and messages per member — the last is
the per-element protocol overhead, which should be flat (O(1) per
member) for every design point.
"""

from __future__ import annotations

from typing import Iterable

from ..wan.workload import ScenarioSpec, build_scenario
from ..weaksets import DynamicSet, GrowOnlySet, SnapshotSet, StrongSet, install_lock_service
from .harness import drain
from .report import ExperimentResult

__all__ = ["run_scale"]

_IMPLS = (
    ("strong", StrongSet),
    ("fig4 snapshot", SnapshotSet),
    ("fig5 grow-only", GrowOnlySet),
    ("fig6 dynamic", DynamicSet),
)


def run_scale(sizes: Iterable[int] = (20, 80, 320),
              seed: int = 0) -> ExperimentResult:
    """E12: simulated time and message counts across set sizes."""
    result = ExperimentResult(
        "E12", "Scale sweep: cost vs set size (fixed 4x3 WAN topology)",
        columns=["members", "impl", "sim_time", "messages",
                 "msgs_per_member"],
        notes="messages/member is the per-element protocol overhead; "
              "flat means O(1) per member for every design point",
    )
    for size in sizes:
        for impl_name, cls in _IMPLS:
            policy = cls.expected_policy
            spec = ScenarioSpec(n_clusters=4, cluster_size=3, n_members=size,
                                policy=policy)
            scenario = build_scenario(spec, seed=seed)
            install_lock_service(scenario.world, spec.primary)
            ws = cls(scenario.world, scenario.client, spec.coll_id,
                     record=False)
            drained = drain(scenario, ws.elements())
            messages = scenario.kernel.obs.metrics.value("net.messages_sent")
            result.add(
                members=size,
                impl=impl_name,
                sim_time=drained.total_time,
                messages=messages,
                msgs_per_member=messages / size,
            )
    return result
