"""E15 — characterizing the failure detector.

"We assume we can detect failures" is the paper's load-bearing
assumption; this experiment measures what a timeout-based detector
actually delivers: **detection latency** (crash → suspected), **recovery
latency** (repair → trusted again), and **false suspicions** on a lossy
network, swept over the suspicion threshold.  The classic trade-off
should appear: aggressive thresholds detect fast but mistrust healthy
nodes; conservative ones are accurate but slow.
"""

from __future__ import annotations

from typing import Iterable

from ..net.fabric import Network
from ..net.failure_detector import FailureDetector
from ..net.link import FixedLatency
from ..net.topology import full_mesh
from ..sim.kernel import Kernel
from .harness import mean_or_nan
from .report import ExperimentResult

__all__ = ["run_detector"]


def _one_run(suspect_after: float, loss_rate: float, seed: int,
              crash_at: float = 10.0, recover_at: float = 20.0,
              horizon: float = 40.0):
    kernel = Kernel(seed=seed)
    nodes = ["home", "victim", "healthy"]
    topo = full_mesh(nodes, FixedLatency(0.01))
    for link in topo.links():
        link.loss_rate = loss_rate
    net = Network(kernel, topo, default_timeout=0.5)
    FailureDetector.install_ping(net, ["victim", "healthy"])
    detector = FailureDetector(net, "home", ["victim", "healthy"],
                               period=0.5, suspect_after=suspect_after,
                               rpc_timeout=0.3)
    detector.start()

    def schedule():
        from ..sim.events import Sleep
        yield Sleep(crash_at)
        net.crash("victim")
        yield Sleep(recover_at - crash_at)
        net.recover("victim")

    kernel.spawn(schedule(), daemon=True)
    kernel.run(until=horizon)

    # Reconstruct the suspected-state timeline per node; detection
    # latency is "crash → first moment the detector suspects" (zero if a
    # false suspicion already had the victim suspected at crash time).
    detect_latency = None
    recover_latency = None
    false_suspicions = 0
    victim_suspected_at_crash = False
    for t, node, suspected in detector.transitions:
        if node == "victim" and t < crash_at:
            victim_suspected_at_crash = suspected
            if suspected:
                false_suspicions += 1
        if (node == "victim" and suspected and crash_at <= t < recover_at
                and detect_latency is None):
            detect_latency = t - crash_at
        if (node == "victim" and not suspected and t >= recover_at
                and recover_latency is None):
            recover_latency = t - recover_at
        if node == "healthy" and suspected:
            false_suspicions += 1
    if detect_latency is None and victim_suspected_at_crash:
        detect_latency = 0.0
    return detect_latency, recover_latency, false_suspicions


def run_detector(thresholds: Iterable[float] = (0.8, 1.5, 3.0, 6.0),
                 loss_rate: float = 0.15,
                 runs_per_point: int = 5) -> ExperimentResult:
    """E15: detection/recovery latency and false suspicions vs threshold."""
    result = ExperimentResult(
        "E15", f"Failure detector characterization (lossy links, "
               f"loss={loss_rate})",
        columns=["suspect_after", "mean_detect_latency",
                 "mean_recover_latency", "false_suspicions_total"],
        notes="aggressive thresholds detect crashes fast but mistrust "
              "healthy nodes on a lossy network; conservative ones are "
              "slow but sure",
    )
    for threshold in thresholds:
        detects, recovers, false_total = [], [], 0
        for seed in range(runs_per_point):
            d, r, f = _one_run(threshold, loss_rate, seed)
            if d is not None:
                detects.append(d)
            if r is not None:
                recovers.append(r)
            false_total += f
        result.add(
            suspect_after=threshold,
            mean_detect_latency=mean_or_nan(detects),
            mean_recover_latency=mean_or_nan(recovers),
            false_suspicions_total=false_total,
        )
    return result
