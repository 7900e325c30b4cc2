"""E24 — sharded membership: throughput, conformance, rebalance.

The paper's collections have a single membership registry on one
primary — fine for "elements change infrequently", but the registry
becomes the write bottleneck the moment a population of writers shows
up (E22/E23 hit exactly that knee).  ``repro.store.sharding``
partitions the registry over a consistent-hash ring of shard servers;
E24 is the experiment that earns it:

* **throughput** — closed-loop writers slam membership registrations
  into worlds that differ *only* in shard count, at fixed per-server
  capacity (1 worker x 4 ms).  Registration capacity should scale with
  the ring: the 4-shard world must clear >= 2.5x the 1-shard world.
* **conformance** — the E1 matrix re-run on sharded collections (3
  shards + 2 mirror replicas), plus the quorum variant (per-shard
  majorities) and the strong baseline (per-shard locks in ring order):
  scatter-gather reads must leave every implementation conformant to
  its figure.
* **rebalance** — ``add_shard``/``remove_shard`` while churn writers
  keep mutating, over several seeds; some seeds crash the migration
  *target* mid-handoff and recover it later.  Gates: the coordinator
  finishes anyway, zero cross-component invariant violations, zero
  lost acked members, zero resurrected removals, and a scatter read
  agrees with ground truth exactly.

All quantities are virtual-time, seed-deterministic; the gates travel.
"""

from __future__ import annotations

from typing import Generator, Iterable

from ..errors import FailureException
from ..net.executor import ExecutorPolicy
from ..net.failures import FaultSchedule
from ..net.resilience import ResilientClient
from ..sim.events import Fork, Join, Sleep
from ..store.repository import Repository
from ..wan.workload import ScenarioSpec, build_scenario
from ..weaksets import QuorumGrowOnlySet, StrongSet
from .exp_conformance import IMPL_CASES, ImplCase, run_case
from .harness import heal_and_settle
from .report import ExperimentResult

__all__ = ["run_sharding", "throughput_spec", "SHARD_COUNTS", "WRITERS",
           "ADDS_PER_WRITER", "SERVICE_TIME"]

#: Throughput-leg capacity: every server gets exactly one worker at
#: 4 ms per request, so a k-shard ring registers at most k/0.004 per
#: second no matter how hard the writers push.
SERVICE_TIME = 0.004
CONCURRENCY = 1
SHARD_COUNTS = (1, 2, 4)
WRITERS = 48
ADDS_PER_WRITER = 15


def throughput_spec(shards: int) -> ScenarioSpec:
    """The throughput world: only the ring size varies.

    Latencies are uniformly small so queueing at the shard servers —
    not WAN distance — is the measured quantity, and object homes go
    to non-shard slots so creation capacity never masks registration
    capacity.
    """
    return ScenarioSpec(
        n_clusters=4, cluster_size=3, n_members=0,
        shards=shards, replicas=0,
        service_time=SERVICE_TIME,
        intra_latency=0.002, inter_latency=0.002,
        executor=ExecutorPolicy(concurrency=CONCURRENCY, queue_limit=None),
    )


def _throughput_arm(shards: int, seed: int) -> tuple[int, float]:
    scenario = build_scenario(throughput_spec(shards), seed=seed)
    kernel, world = scenario.kernel, scenario.world
    repo = scenario.repo()
    coll = scenario.coll_id
    done = {"adds": 0}

    def writer(wid: int) -> Generator:
        for i in range(ADDS_PER_WRITER):
            # Homes round-robin over the 8 non-shard slots (slots 1-2
            # of each cluster), which the ring never contains.
            j = wid * ADDS_PER_WRITER + i
            home = f"n{j % 4}.{1 + (j // 4) % 2}"
            yield from repo.add(coll, f"w{wid:02d}-{i:03d}",
                                value=None, home=home, size=0)
            done["adds"] += 1

    def parent() -> Generator:
        children = []
        for wid in range(WRITERS):
            child = yield Fork(writer(wid), name=f"writer-{wid}")
            children.append(child)
        for child in children:
            yield Join(child)

    start = kernel.now
    kernel.run_process(parent())
    elapsed = kernel.now - start
    problems = world.check_invariants()
    if problems:  # pragma: no cover - the gate this leg carries
        raise AssertionError(f"invariant leak at {shards} shards: {problems}")
    return done["adds"], elapsed


# -- conformance leg ------------------------------------------------------

#: the two cross-shard read protocols the sharded store adds to E1's
#: matrix cases; every case is judged against its own class's figure
_CROSS_SHARD_CASES = (
    ImplCase(QuorumGrowOnlySet, "grow", blip=True),
    ImplCase(StrongSet, "none", blip=False),
)

_CONF_WORLD = ScenarioSpec(n_clusters=4, cluster_size=2, n_members=10,
                           shards=3, replicas=2, coll_id="coll")


# -- rebalance-under-churn leg --------------------------------------------

CHURN_WRITERS = 4
CHURN_OPS = 20


class _ChurnLedger:
    """Exactly what each churn writer attempted and what was acked."""

    def __init__(self):
        self.attempted_adds: set[str] = set()
        self.acked_adds: dict[str, object] = {}
        self.acked_removes: set[str] = set()
        self.attempted_removes: set[str] = set()
        self.failures = 0


def _churn_writer(repo: Repository, coll: str, wid: int,
                  ledger: _ChurnLedger) -> Generator:
    for i in range(CHURN_OPS):
        name = f"churn-{wid}-{i:03d}"
        ledger.attempted_adds.add(name)
        try:
            element = yield from repo.add(coll, name, value=None,
                                          home=f"n{(wid + i) % 4}.1", size=0)
            ledger.acked_adds[name] = element
        except FailureException:
            ledger.failures += 1
        if i % 3 == 2:
            victim_name = f"churn-{wid}-{i - 2:03d}"
            victim = ledger.acked_adds.get(victim_name)
            if victim is not None:
                ledger.attempted_removes.add(victim_name)
                try:
                    yield from repo.remove(coll, victim)
                    ledger.acked_removes.add(victim_name)
                except FailureException:
                    ledger.failures += 1
        yield Sleep(0.02)


def _rebalance_arm(seed: int, crash: bool):
    """One churn seed: grow the ring (and shrink it back, when the
    target is not being crashed) while writers keep writing."""
    spec = ScenarioSpec(n_clusters=4, cluster_size=2, n_members=30,
                        shards=3, replicas=0, coll_id="coll",
                        intra_latency=0.002, inter_latency=0.002)
    scenario = build_scenario(spec, seed=seed)
    world, kernel = scenario.world, scenario.kernel
    # Writers ride a resilient stack: freezes during handoff surface as
    # ServerBusyFailure hints and must be retried, not dropped.
    repo = Repository(world, scenario.client,
                      resilience=ResilientClient(scenario.net))
    ledger = _ChurnLedger()
    target = "n3.0"  # slot-major layout leaves n3.0 off the 3-node ring

    if crash:
        schedule = (FaultSchedule()
                    .crash_at(0.35, target)
                    .recover_at(1.6, target))
        kernel.spawn(schedule.run(scenario.net), name="fault-schedule",
                     daemon=True)

    def driver() -> Generator:
        children = []
        for wid in range(CHURN_WRITERS):
            child = yield Fork(_churn_writer(repo, "coll", wid, ledger),
                               name=f"churn-{wid}")
            children.append(child)
        yield Sleep(0.2)
        grow = world.add_shard("coll", target)
        yield Join(grow)
        if not crash:
            shrink = world.remove_shard("coll", "n1.0")
            yield Join(shrink)
        for child in children:
            yield Join(child)

    kernel.run_process(driver())
    # Settle: WAL replay, scrub, and mirror rounds after the dust.
    problems = heal_and_settle(scenario, bound=60.0, step=1.0)
    truth = {e.name for e in world.true_members("coll")}
    seeded = {e.name for e in scenario.elements}
    live_acked = {n for n in ledger.acked_adds
                  if n not in ledger.attempted_removes}
    lost = live_acked - truth
    resurrected = ledger.acked_removes & truth
    foreign = truth - seeded - ledger.attempted_adds

    def read_back():
        view = yield from repo.read_membership("coll", source="primary")
        return {e.name for e in view.members}

    scatter = kernel.run_process(read_back())
    smap = world.collections["coll"].shard_map
    return {
        "violations": len(problems),
        "lost": len(lost),
        "resurrected": len(resurrected),
        "foreign": len(foreign),
        "scatter_matches": scatter == truth,
        "acked_adds": len(ledger.acked_adds),
        "acked_removes": len(ledger.acked_removes),
        "failures": ledger.failures,
        "generation": smap.generation,
        "migration_done": smap.migration is None,
        "ring_size": len(smap.ring.nodes),
    }


def run_sharding(seed: int = 0, shard_counts: Iterable[int] = SHARD_COUNTS,
                 conf_seeds: Iterable[int] = range(3),
                 churn_seeds: Iterable[int] = range(3)) -> ExperimentResult:
    """E24: registration throughput vs ring size, the conformance
    matrix over scatter-gather reads, and rebalancing under churn."""
    shard_counts = list(shard_counts)
    conf_seeds = list(conf_seeds)
    churn_seeds = list(churn_seeds)
    result = ExperimentResult(
        "E24",
        "Sharded membership: consistent-hash registry partitioning, "
        f"fixed per-server capacity ({CONCURRENCY} worker x "
        f"{SERVICE_TIME * 1000:.0f} ms)",
        columns=["leg", "arm", "detail", "value"],
        notes="throughput in registrations per virtual second; "
              "conformance counts conforming seeds per impl against its "
              "own figure; rebalance rows gate invariant leaks, lost "
              "acked members, resurrected removals, and scatter-read "
              "agreement over add_shard/remove_shard (some seeds crash "
              "the migration target mid-handoff)",
    )
    metrics = result.metrics

    throughput: dict[int, float] = {}
    for k in shard_counts:
        adds, elapsed = _throughput_arm(k, seed)
        rate = adds / elapsed if elapsed > 0 else 0.0
        throughput[k] = rate
        metrics[f"throughput.{k}_shard"] = round(rate, 1)
        result.add(leg="throughput", arm=f"{k}-shard",
                   detail=f"{adds} adds in {elapsed:.3f}s",
                   value=f"{rate:.0f}/s")
    base = min(shard_counts)
    for k in shard_counts:
        metrics[f"speedup.{k}_vs_{base}"] = round(
            throughput[k] / throughput[base], 2)
    result.add(leg="throughput", arm="speedup",
               detail=f"{max(shard_counts)}-shard vs {base}-shard",
               value=f"{metrics[f'speedup.{max(shard_counts)}_vs_{base}']}x")

    all_conformant = True
    for case in IMPL_CASES + _CROSS_SHARD_CASES:
        ok = sum(run_case(case, _CONF_WORLD, s).audit().conformant
                 for s in conf_seeds)
        all_conformant &= ok == len(conf_seeds)
        metrics[f"conformance.{case.cls.impl_name}"] = ok
        result.add(leg="conformance", arm=case.cls.impl_name,
                   detail=f"vs {case.cls.semantics}, 3 shards + 2 mirrors",
                   value=f"{ok}/{len(conf_seeds)}")
    metrics["conformance.all"] = int(all_conformant)

    totals = {"violations": 0, "lost": 0, "resurrected": 0, "foreign": 0,
              "scatter_mismatch": 0, "incomplete": 0}
    for i, s in enumerate(churn_seeds):
        crash = i % 2 == 0  # alternate: crash legs and shrink legs
        r = _rebalance_arm(s, crash)
        totals["violations"] += r["violations"]
        totals["lost"] += r["lost"]
        totals["resurrected"] += r["resurrected"]
        totals["foreign"] += r["foreign"]
        totals["scatter_mismatch"] += int(not r["scatter_matches"])
        totals["incomplete"] += int(not r["migration_done"])
        result.add(leg="rebalance",
                   arm=f"seed{s}" + ("+crash" if crash else "+shrink"),
                   detail=(f"acked {r['acked_adds']}+/{r['acked_removes']}- "
                           f"fail {r['failures']} gen {r['generation']} "
                           f"ring {r['ring_size']}"),
                   value=(f"viol {r['violations']} lost {r['lost']} "
                          f"res {r['resurrected']} "
                          f"scatter {'ok' if r['scatter_matches'] else 'MISMATCH'}"))
    for key, total in totals.items():
        metrics[f"rebalance.{key}"] = total
    return result
