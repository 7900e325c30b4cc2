"""E25 — the real wire: codec bytes, bandwidth, and byte-aware batching.

Until now the network charged latency but moved weightless messages.
:mod:`repro.net.wire` gives every RPC a size (compact tag-dispatched
binary codec vs the naive pickle-the-envelope baseline) and every link
a finite bandwidth with a FIFO transmission queue.  E25 measures what
that buys and what it costs, on the standard fig6 drain workload:

* **codec leg** — compact vs naive bytes-on-wire for the same seeded
  drains.  The gated row is the metadata drain (``member_size=0``):
  the codec's whole job is envelope + membership metadata, and there
  compact must ship >= 4x fewer bytes.  The 2 KB-body row is the
  honesty row: declared object bytes are charged identically by both
  codecs, so the ratio shrinks toward 1 as bodies dominate — the codec
  does not pretend to compress payloads.
* **batch sweep** — batch size {1, 4, 16} on an unconstrained fabric
  vs the WAN preset (1.25 MB/s inter-cluster and access links).  With
  free links, bigger batches only amortize round-trips; once
  serialization + transmission cost is real, store-and-forward makes a
  32 KB multi-get reply pay every constrained hop serially, and the
  sweet spot shifts away from "as big as possible".
* **byte-cap leg** — ``max_batch_bytes`` on the fetch pipeline under
  the WAN preset: capping batches by bytes (keeping the item cap)
  must beat uncapped batching on drain throughput.
* **determinism leg** — the same seeded scenario drained twice must
  move byte-for-byte identical traffic.

Every drain is audited for fig6 conformance (plus one fig4 snapshot
audit under the WAN preset) and must report zero violations.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from ..wan.workload import ScenarioSpec, build_scenario
from ..weaksets import DynamicSet, SnapshotSet
from .harness import drain
from .report import ExperimentResult

__all__ = ["run_wire"]

# The standard drain world: 4 clusters x 3, members scattered nearly
# uniformly (low skew) so fetches actually cross the constrained
# inter-cluster links, one membership replica so anti-entropy
# sync_delta traffic is on the wire too.
_BASE = ScenarioSpec(n_clusters=4, cluster_size=3, n_members=32,
                     policy="any", heavy_tail=False, replicas=1,
                     placement_skew=0.2)

# The heavy drain for the bandwidth legs: fewer, fatter homes (8 members
# per node, so the item cap actually binds) and 16 KB bodies (so a
# 16-item multi-get reply is 256 KB — real time on a 1.25 MB/s link).
_HEAVY = replace(_BASE, cluster_size=2, n_members=64, member_size=16384)


def _drain(spec: ScenarioSpec, seed: int, *, window: int = 8,
           batch: int = 4, max_bytes: Optional[int] = None,
           size_hint: Optional[int] = None, snapshot: bool = False) -> dict:
    """One seeded drain; returns timings, byte counters, violations."""
    scenario = build_scenario(spec, seed=seed)
    kwargs: dict = dict(fetch_window=window, fetch_batch=batch)
    if max_bytes is not None:
        kwargs.update(fetch_max_bytes=max_bytes, fetch_size_hint=size_hint)
    cls = SnapshotSet if snapshot else DynamicSet
    ws = cls(scenario.world, scenario.client, spec.coll_id, **kwargs)
    drained = drain(scenario, ws.elements())
    metrics = scenario.kernel.obs.metrics
    return {
        "time_to_first": drained.time_to_first,
        "total_time": drained.total_time,
        "yielded": len(drained.yields),
        "violations": 0 if ws.audit().conformant else 1,
        "bytes_sent": metrics.value("net.bytes_sent"),
        "object_bytes": metrics.value("net.bytes_sent.object"),
        "membership_bytes": metrics.value("net.bytes_sent.membership"),
        "sync_bytes": metrics.value("net.bytes_sent.sync"),
        "queue_delay_p95": _quantile(metrics, "net.link.queue_delay", 0.95),
    }


def _quantile(metrics, name: str, q: float) -> float:
    hist = metrics.get(name)
    return hist.quantile(q) if hist is not None and hist.count else 0.0


def run_wire(members: int = 32, seed: int = 0) -> ExperimentResult:
    """E25: bytes-on-wire, bandwidth-aware batching, byte-capped drains."""
    result = ExperimentResult(
        "E25", "The wire: compact codec bytes, WAN bandwidth, byte caps",
        columns=["mode", "codec", "link", "member_size", "batch",
                 "max_bytes", "bytes_sent", "bytes_per_member",
                 "naive_over_compact", "time_to_first", "total_time",
                 "throughput", "queue_p95", "violations"],
        notes="codec gate: compact ships >=4x fewer bytes than naive on "
              "the metadata drain (member_size=0); the 2KB-body row is "
              "the honesty row (declared payload bytes are charged "
              "identically, so the ratio shrinks as bodies dominate). "
              "Under the WAN preset byte-capped batching must beat "
              "uncapped on throughput, and byte counts are seed-"
              "deterministic. All drains audit fig6 (snapshot audit: "
              "fig4) with zero violations.",
    )
    base = replace(_BASE, n_members=members)
    # the headline block the E25 gate reads, filled as the legs run
    ratios = result.metrics["naive_over_compact_bytes"] = {}
    sent = result.metrics["net.bytes_sent"] = {}
    throughput = result.metrics["wan_throughput"] = {}

    # -- codec leg: compact vs naive bytes on the same drains ----------
    for member_size in (0, 2048):
        sized = replace(base, member_size=member_size)
        for codec in ("compact", "naive"):
            r = _drain(replace(sized, codec=codec), seed)
            sent[f"{codec}_size{member_size}"] = r["bytes_sent"]
            result.add(mode="codec", codec=codec, link="free",
                       member_size=member_size, batch=4,
                       bytes_sent=r["bytes_sent"],
                       bytes_per_member=r["bytes_sent"] / members,
                       naive_over_compact=None,
                       time_to_first=r["time_to_first"],
                       total_time=r["total_time"],
                       violations=r["violations"])
        ratio = (sent[f"naive_size{member_size}"]
                 / sent[f"compact_size{member_size}"])
        ratios[f"member_size{member_size}"] = ratio
        result.add(mode="codec-ratio", codec="naive/compact", link="free",
                   member_size=member_size, naive_over_compact=ratio,
                   violations=0)

    # -- batch sweep: the sweet spot moves once the wire is real -------
    for link in ("free", "wan"):
        preset = None if link == "free" else "wan"
        for batch in (1, 4, 16):
            spec = replace(_HEAVY, bandwidth_preset=preset)
            r = _drain(spec, seed, batch=batch)
            result.add(mode="batch-sweep", codec="compact", link=link,
                       member_size=_HEAVY.member_size, batch=batch,
                       bytes_sent=r["bytes_sent"],
                       time_to_first=r["time_to_first"],
                       total_time=r["total_time"],
                       throughput=_HEAVY.n_members / r["total_time"],
                       queue_p95=r["queue_delay_p95"],
                       violations=r["violations"])

    # -- byte-cap leg: capped vs uncapped under the WAN preset ---------
    wan = replace(_HEAVY, bandwidth_preset="wan")
    for label, max_bytes in (("uncapped", None),
                             ("byte_capped", 3 * _HEAVY.member_size)):
        r = _drain(wan, seed, batch=16, max_bytes=max_bytes,
                   size_hint=_HEAVY.member_size)
        throughput[f"{label}_batch16"] = _HEAVY.n_members / r["total_time"]
        result.add(mode="byte-cap", codec="compact", link="wan",
                   member_size=_HEAVY.member_size, batch=16,
                   max_bytes=max_bytes or 0,
                   bytes_sent=r["bytes_sent"],
                   time_to_first=r["time_to_first"],
                   total_time=r["total_time"],
                   throughput=throughput[f"{label}_batch16"],
                   queue_p95=r["queue_delay_p95"],
                   violations=r["violations"])

    # -- fig4 audit: one snapshot drain on the constrained fabric ------
    r = _drain(wan, seed, snapshot=True)
    result.add(mode="fig4-audit", codec="compact", link="wan",
               member_size=_HEAVY.member_size, batch=4,
               bytes_sent=r["bytes_sent"], total_time=r["total_time"],
               violations=r["violations"])

    # -- determinism: same seed => byte-identical traffic --------------
    runs = [_drain(wan, seed)["bytes_sent"] for _ in range(2)]
    result.add(mode="determinism", codec="compact", link="wan",
               member_size=_HEAVY.member_size, batch=4,
               bytes_sent=runs[0],
               naive_over_compact=None,
               throughput=1.0 if runs[0] == runs[1] else 0.0,
               violations=0 if runs[0] == runs[1] else 1)
    return result
