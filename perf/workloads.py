"""The six benchmark workloads, every dial written out.

Each workload drives the **public** API of ``repro.sim / net / store /
weaksets / spec / wan`` — never ``repro.bench.exp_*``, whose dials later
PRs may change.  A workload is two steps:

* ``setup(seed)`` builds a fresh world and generates the inputs (timed
  as set-up, outside the measured region);
* ``run(state)`` is the measured region and returns an :class:`Outcome`
  carrying the simulated statistics, the output-check verdicts, and the
  per-layer counters read from the run's own ``kernel.obs.metrics``.

``--seed`` reaches only ``setup``: the library sees a kernel seed and
generated specs, never a workload name (``drain_audit`` and
``overload_knee`` ignore it, see ``worlds.py``).  Pass lengths are sized so one
pass costs about one host second on the 2-core box the benchmark was
defined on; ``scale`` shrinks a pass for the harness tests.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro.net import (AIMDPolicy, AdaptiveLimiter, CompactCodec,
                       FaultSchedule, NaiveCodec, ResilientClient,
                       RetryBudgetPolicy, WireFormat)
from repro.sim import Kernel, Sleep
from repro.spec import check_conformance, spec_by_id
from repro.store import Repository
from repro.wan import (Behavior, PopulationEngine, PopulationSpec, Stage,
                       default_behaviors)
from repro.weaksets import DynamicSet, SnapshotSet

import worlds

__all__ = ["Outcome", "Workload", "WORKLOADS", "percentile"]


@dataclass
class Outcome:
    """What one measured region produced."""

    ops: int                          # attempted
    failed: int                       # failed or refused
    latencies: list[float]            # virtual seconds, one per op sample
    sim_bytes: float                  # numerator of sim_bytes_per_op
    events: int = 0                   # kernel.events
    messages: int = 0                 # net.messages_sent
    digest: str = ""
    problems: list[str] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)   # exact
    host: dict[str, float] = field(default_factory=dict)       # host-timed


@dataclass(frozen=True)
class Workload:
    # Why each workload exists is said once, in BENCHMARK.json (and at
    # length in README.md).
    name: str
    loop: str
    op: str
    setup: Callable[[int, float], Any]
    run: Callable[[Any], Outcome]
    #: optional untimed extra measurements (layer metrics only)
    after: Callable[[Any, Outcome], None] = lambda state, outcome: None


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (exact, no interpolation)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _digest(*parts: Any) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\x00")
    return h.hexdigest()


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def registry_counters(metrics, ops: int) -> dict[str, float]:
    """The named per-layer counters, read from a run's metrics registry.

    Ratios are taken where the work happens (per op, per message, per
    batch) so a layer that wastes work shows it; a workload that never
    touches a layer reads 0 there.
    """
    v, hist = metrics.value, metrics.get

    def quantile(name: str, q: float) -> float:
        h = hist(name)
        return h.quantile(q) if h is not None and h.count else 0.0

    def count(name: str) -> int:
        h = hist(name)
        return h.count if h is not None else 0

    def total(name: str) -> float:
        h = hist(name)
        return h.total if h is not None else 0.0

    msgs = v("net.messages_sent")
    admitted, shed = v("overload.admitted"), v("overload.shed")
    brownout = v("overload.brownout_served")
    hits = v("repo.cache_hits")
    return {
        "sim.events_per_op": _share(v("kernel.events"), ops),
        "net.transport.msgs_per_op": _share(msgs, ops),
        "net.transport.bytes_per_msg": _share(v("net.bytes_sent"), msgs),
        "net.transport.dropped_share": _share(v("net.messages_dropped"), msgs),
        "net.topology.queue_delay_p95_s": quantile("net.link.queue_delay", 0.95),
        "net.resilience.retry_share": _share(v("rpc.retries"), v("rpc.attempts")),
        "net.resilience.budget_exhausted": v("overload.retry_budget_exhausted"),
        "net.executor.shed_share": _share(shed, admitted + shed),
        "net.executor.brownout_share": _share(brownout,
                                              admitted + shed + brownout),
        "net.executor.queue_wait_p95_s": quantile("overload.queue_wait", 0.95),
        "store.repository.membership_reads_per_op":
            _share(v("repo.membership_reads"), ops),
        "store.repository.cache_hit_share":
            _share(hits, hits + count("repo.fetch_latency")),
        "store.fetchplan.elements_per_batch":
            _share(v("fetch.batch.elements"), v("fetch.batch.calls")),
        "store.fetchplan.coalesced_share":
            _share(v("fetch.batch.coalesced"), v("fetch.batch.elements")),
        "store.fetchplan.retries": v("fetch.batch.retries"),
        "store.writeplan.elements_per_batch":
            _share(v("write.batch.elements"), v("write.batch.calls")),
        "store.writeplan.fanout_per_op": _share(total("write.batch.fanout"), ops),
        "store.wal.intents_per_op": _share(v("wal.intents"), ops),
        "store.sharding.scatter_reads_per_op":
            _share(v("shard.scatter_reads"), ops),
        "store.sharding.write_reroutes": v("shard.write_reroutes"),
        "weaksets.yields_per_drain":
            _share(v("drain.yields"), count("drain.latency")),
        "weaksets.time_to_first_p50_s": quantile("drain.time_to_first", 0.5),
        "spec.audits": v("population.audits"),
        "spec.violations": v("population.audit_violations"),
    }


def _kernel_outcome(scenario, *, ops: int, failed: int,
                    latencies: list[float], names=(),
                    problems: list[str]) -> Outcome:
    """Outcome of a kernel-driven workload: the simulated statistics the
    digest covers are the ones a simulator-only speed-up must not move."""
    metrics = scenario.kernel.obs.metrics
    events = int(metrics.value("kernel.events"))
    messages = int(metrics.value("net.messages_sent"))
    sim_bytes = metrics.value("net.bytes_sent")
    return Outcome(
        ops=ops, failed=failed, latencies=latencies, sim_bytes=sim_bytes,
        events=events, messages=messages,
        digest=_digest(ops, failed, scenario.kernel.now, events, messages,
                       sim_bytes, tuple(names)),
        problems=problems, counters=registry_counters(metrics, ops))


# ---------------------------------------------------------------------------
# pop_ramp / overload_knee: open-loop populations
# ---------------------------------------------------------------------------

def _timed(behavior: Behavior, kernel: Kernel,
           latencies: list[float]) -> Behavior:
    """``behavior`` with each session's virtual-time latency, failed or
    not, appended to ``latencies`` (the engine keeps its own samples
    private).  An audited session runs a recorded drain in place of its
    behaviour and is not sampled."""
    def session(sc, stream):
        started = kernel.now
        try:
            yield from behavior.session(sc, stream)
        finally:
            latencies.append(kernel.now - started)

    return replace(behavior, session=session)


def _population_run(state) -> Outcome:
    scenario, spec = state
    latencies: list[float] = []
    spec = replace(spec, behaviors=tuple(
        _timed(b, scenario.kernel, latencies) for b in spec.behaviors))
    stages = PopulationEngine(scenario, spec).run()
    arrivals = sum(r.arrivals for r in stages)
    completions = sum(r.completions for r in stages)
    failures = sum(r.failures for r in stages)
    violations = sum(r.audit_violations for r in stages)
    audits = scenario.kernel.obs.metrics.value("population.audits")
    problems = []
    if completions != arrivals:
        problems.append(f"completions {completions} != arrivals {arrivals}")
    if violations:
        problems.append(f"{violations} audited iteration(s) violate fig6")
    if not audits:
        problems.append("no session was audited: the fig6 check is vacuous")
    # A session still in flight when the run ends was attempted and did
    # not succeed: it counts as failed.
    return _kernel_outcome(scenario, ops=arrivals,
                           failed=failures + (arrivals - completions),
                           latencies=latencies, problems=problems)


def _pop_ramp_setup(seed: int, scale: float):
    """Stages 20 s ramp to the hold rate, 50 s hold, 10 s cool-down at a
    quarter of it; 8:1:1 reader/scanner/writer; lognormal sigma=1."""
    scenario = worlds.population_world(seed)
    rate = 12.0 * scale
    spec = PopulationSpec(
        behaviors=default_behaviors(scenario),
        stages=(Stage(duration=20.0, arrival_rate=rate, name="ramp-up"),
                Stage(duration=50.0, arrival_rate=rate, name="steady"),
                Stage(duration=10.0, arrival_rate=rate / 4.0,
                      name="cool-down")),
        arrival="lognormal", lognormal_sigma=1.0,
        # About 1 session in 100 runs a recorded, fig6-checked drain in
        # place of its behaviour: a handful per pass, at any scale.
        audit_fraction=min(1.0, 0.01 / scale))
    return scenario, spec


def _overload_behaviors(scenario, repo: Repository) -> tuple[Behavior, ...]:
    """8:1 reader/writer sharing one client stack, so the retry budget
    and the AIMD window are shared state as they are behind one stub."""
    coll = scenario.coll_id
    counter = iter(range(1, 1 << 30))

    def reader(sc, stream):
        view = yield from repo.read_membership(coll)
        members = sorted(view.members, key=lambda e: e.name)
        if members:
            target = members[stream.randint(0, len(members) - 1)]
            yield from repo.fetch(target)

    def writer(sc, stream):
        i = next(counter)
        element = yield from repo.add(coll, f"ovl-{i:07d}",
                                      value=f"ovl-payload-{i}")
        yield from repo.remove(coll, element)

    return (Behavior("reader", 8.0, reader), Behavior("writer", 1.0, writer))


def _overload_setup(seed: int, scale: float):
    """Arrival stages below / at / past / far past the ~400/s knee."""
    scenario = worlds.overload_world()
    client = ResilientClient(
        scenario.net, retry_budget=RetryBudgetPolicy(ratio=0.1, burst=10.0))
    limiter = AdaptiveLimiter(AIMDPolicy(max_window=32),
                              metrics=scenario.kernel.obs.metrics)
    repo = Repository(scenario.world, scenario.client,
                      resilience=client, limiter=limiter)
    d = 0.3 * scale
    spec = PopulationSpec(
        behaviors=_overload_behaviors(scenario, repo),
        stages=(Stage(duration=d, arrival_rate=160.0, name="below"),
                Stage(duration=d, arrival_rate=400.0, name="knee"),
                Stage(duration=d, arrival_rate=800.0, name="saturate"),
                Stage(duration=d, arrival_rate=1400.0, name="overload")),
        arrival="lognormal", lognormal_sigma=1.0,
        audit_fraction=min(1.0, 0.01 / scale),
        # Long enough for a full timeout x retry chain to land as a
        # counted failure instead of lingering in flight.
        drain_grace=20.0)
    return scenario, spec


# ---------------------------------------------------------------------------
# write_storm: the batched write path on a sharded registry
# ---------------------------------------------------------------------------

def _storm_setup(seed: int, scale: float):
    return worlds.storm_world(seed, n_adds=max(16, int(700 * scale)))


def _storm_run(state) -> Outcome:
    scenario, plan = state
    kernel, world, coll = scenario.kernel, scenario.world, scenario.coll_id
    repo = scenario.repo()
    added = kernel.run_process(repo.add_many(
        coll, plan, window=8, batch_size=16, on_failure="skip"))
    scenario.elements = added
    victims = added[::2]
    removed = kernel.run_process(repo.remove_many(
        coll, victims, window=8, batch_size=16, on_failure="skip"))
    problems = list(world.check_invariants())
    ops = len(plan) + len(victims)
    failed = (len(plan) - len(added)) + (len(victims) - removed)
    expected = sorted({e.name for e in added} - {e.name for e in victims})
    truth = sorted(e.name for e in world.true_members(coll))
    if truth != expected:
        problems.append(f"true membership has {len(truth)} names, "
                        f"expected {len(expected)}")
    latency = scenario.kernel.obs.metrics.get("write.batch.latency")
    # One sample per batch is all the registry keeps: its bucketed
    # quantile repeats exactly, which is what the gate needs.
    latencies = [latency.quantile(0.5)] if latency and latency.count else []
    return _kernel_outcome(scenario, ops=ops, failed=failed,
                           latencies=latencies, names=truth,
                           problems=problems)


# ---------------------------------------------------------------------------
# drain_audit: recorded drains over a finite-bandwidth WAN, all audited
# ---------------------------------------------------------------------------

_DRAIN_ROUNDS = 3
#: the drain whose middle loses a remote cluster head (0-based)
_FAULT_ROUND = 2
#: the isolated head: cluster 2's gateway, two WAN hops from the client
_FAULT_NODE = "n2.0"
#: (class, figure, extra kwargs).  DynamicSet runs with failover off:
#: with it on, a member whose home is isolated is served from a replica,
#: which World.reachable_of accepts and the checker's home-only
#: StateSnapshot.reachable_of rejects (a fig6 "violation" on 1 seed in
#: 12) — a disagreement for the checker work, not for a benchmark.
_DRAINS = ((SnapshotSet, "fig4", {}),
           (DynamicSet, "fig6", {"failover": False}))


def _drain_setup(seed: int, scale: float):
    n_members = max(8, int(180 * scale))
    return worlds.wan_drain_world(n_members), n_members


def _drain_run(state) -> Outcome:
    scenario, n_members = state
    kernel, world, coll = scenario.kernel, scenario.world, scenario.coll_id
    seeded = sorted(e.name for e in scenario.elements)
    latencies: list[float] = []
    names: list[str] = []
    problems: list[str] = []
    yielded = violations = 0
    check_s = 0.0
    for round_index in range(_DRAIN_ROUNDS):
        for cls, figure, extra in _DRAINS:
            ws = cls(world, scenario.client, coll, fetch_window=8,
                     fetch_batch=8, fetch_max_bytes=65536, **extra)
            faulted = round_index == _FAULT_ROUND
            if faulted:
                # Off the wire for the middle fifth of the drain, as
                # timed by the same drain in the fault-free rounds.
                typical = latencies[-2]
                kernel.spawn(FaultSchedule()
                             .isolate_at(0.4 * typical, _FAULT_NODE)
                             .rejoin_at(0.6 * typical, _FAULT_NODE)
                             .run(scenario.net),
                             name="drain-fault", daemon=True)
            drained = kernel.run_process(ws.elements().drain())
            if faulted:
                # Let the schedule's rejoin land before the next drain.
                kernel.run(until=kernel.now + typical)
            t0 = time.perf_counter()
            report = check_conformance(ws.last_trace, spec_by_id(figure),
                                       world)
            check_s += time.perf_counter() - t0
            got = sorted(e.name for e in drained.elements)
            names.extend(got)
            yielded += len(got)
            latencies.append(drained.total_time)
            if not report.conformant:
                violations += 1
                problems.append(f"round {round_index} {figure}: "
                                f"{report.ensures_violations[:1]}"
                                f"{report.constraint_violations[:1]}")
            if not faulted and got != seeded:
                problems.append(f"round {round_index} {figure}: yielded "
                                f"{len(got)} of {len(seeded)} members")
    drains = len(_DRAINS) * _DRAIN_ROUNDS
    ops = drains * n_members
    outcome = _kernel_outcome(scenario, ops=ops, failed=ops - yielded,
                              latencies=latencies, names=names,
                              problems=problems)
    outcome.counters["spec.audits"] = drains
    outcome.counters["spec.violations"] = violations
    outcome.host["spec.check_ms_per_trace"] = check_s * 1000.0 / drains
    return outcome


# ---------------------------------------------------------------------------
# kernel_storm: the scheduler alone
# ---------------------------------------------------------------------------

_TICK = 0.010
_WAKES = 4


def _kernel_setup(seed: int, scale: float):
    """Transient generator clients: a stagger, then four wakes on one of
    seven quantised 10-70 ms ticks.  The seed picks each client's tick,
    so the event *count* is closed-form while the order is not."""
    n_clients = max(100, int(16_000 * scale))
    rng = random.Random(seed)
    picks = [rng.randrange(7) for _ in range(n_clients)]
    return Kernel(seed=1), picks


def _kernel_run(state) -> Outcome:
    kernel, picks = state
    sleeps = [Sleep(_TICK * (1 + k)) for k in range(7)]
    stagger = [Sleep(k * (_TICK / 64.0)) for k in range(64)]

    def client(i: int, pick: int):
        yield stagger[i % 64]
        tick = sleeps[pick]
        for _ in range(_WAKES):
            yield tick

    for i, pick in enumerate(picks):
        kernel.spawn(client(i, pick), transient=True)
    kernel.run()
    events = int(kernel.obs.metrics.value("kernel.events"))
    # Per client: the spawn step, the stagger wake, one wake per tick.
    expected = len(picks) * (_WAKES + 2)
    problems = ([] if events == expected
                else [f"kernel.events {events} != closed form {expected}"])
    return Outcome(ops=events, failed=0, latencies=[], sim_bytes=0.0,
                   events=events,
                   digest=_digest(events, kernel.now, sum(picks)),
                   problems=problems,
                   counters=registry_counters(kernel.obs.metrics, events))


# ---------------------------------------------------------------------------
# codec_roundtrip: real bytes out and back, no kernel in the timed region
# ---------------------------------------------------------------------------

def _capture(scenario, drive: Callable[[], None]) -> list:
    """Record every message ``drive`` sends, by wrapping ``send`` on this
    world's transport instance (the class is untouched)."""
    transport = scenario.net.transport
    original = transport.send
    corpus: list = []

    def recording_send(msg):
        corpus.append(msg)
        return original(msg)

    transport.send = recording_send
    try:
        drive()
    finally:
        del transport.send
    return corpus


def _codec_setup(seed: int, scale: float):
    """A corpus of real traffic: a small population run (membership
    reads, fetches, single writes, failures) and a small sharded write
    storm (multi-puts, group commits, sync deltas, WAL traffic)."""
    population = _pop_ramp_setup(seed, 0.25 * scale)
    storm = worlds.storm_world(seed, n_adds=max(16, int(100 * scale)))
    corpus = _capture(population[0], lambda: _population_run(population))
    corpus += _capture(storm[0], lambda: _storm_run(storm))
    # Per-corpus sequence numbers in place of the process-wide msg_id
    # counter: its varint width would make the corpus's bytes, and the
    # encoder's call count, depend on how many messages this process had
    # made before.
    ids = {m.msg_id: i for i, m in enumerate(corpus, 1)}
    return [replace(m, msg_id=ids[m.msg_id],
                    reply_to=None if m.reply_to is None
                    else ids.get(m.reply_to, 1))
            for m in corpus]


def _same_payload(a: Any, b: Any) -> bool:
    """Payload equality, comparing failures by type and fields (exception
    instances never compare equal)."""
    if isinstance(a, BaseException):
        return type(a) is type(b) and a.args == b.args and all(
            getattr(a, k, None) == getattr(b, k, None)
            for k in ("retry_after", "owner", "invocation_index"))
    if isinstance(a, (tuple, list)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(_same_payload(x, y) for x, y in zip(a, b)))
    if isinstance(a, dict):
        return (type(a) is type(b) and a.keys() == b.keys()
                and all(_same_payload(a[k], b[k]) for k in a))
    return a == b


_CODEC_REPEATS = 2


def _codec_run(corpus: list) -> Outcome:
    wire = WireFormat()
    codec = CompactCodec()
    host = {}
    n = len(corpus) * _CODEC_REPEATS
    problems: list[str] = []
    t0 = time.perf_counter()
    for _ in range(_CODEC_REPEATS):
        sizes = [wire.measure(m) for m in corpus]
    t1 = time.perf_counter()
    for _ in range(_CODEC_REPEATS):
        encoded = [codec.encode_message(m) for m in corpus]
    t2 = time.perf_counter()
    for _ in range(_CODEC_REPEATS):
        decoded = [codec.decode_message(b) for b in encoded]
    t3 = time.perf_counter()
    host["net.wire.measure_us_per_msg"] = (t1 - t0) * 1e6 / n
    host["net.wire.encode_us_per_msg"] = (t2 - t1) * 1e6 / n
    host["net.wire.decode_us_per_msg"] = (t3 - t2) * 1e6 / n
    bad_trip = bad_size = 0
    for msg, data, back in zip(corpus, encoded, decoded):
        if not (back.method == msg.method and back.src == msg.src
                and back.dst == msg.dst and back.msg_id == msg.msg_id
                and _same_payload(msg.payload, back.payload)):
            bad_trip += 1
        if codec.message_size(msg) != len(data):
            bad_size += 1
    if bad_trip:
        problems.append(f"{bad_trip} message(s) did not round-trip")
    if bad_size:
        problems.append(f"{bad_size} message(s): message_size != len(encode)")
    return Outcome(ops=n, failed=(bad_trip + bad_size) * _CODEC_REPEATS,
                   latencies=[],
                   # mean compact-encoded bytes per message
                   sim_bytes=float(sum(sizes)) * _CODEC_REPEATS,
                   messages=n,
                   digest=_digest(len(corpus), sum(sizes),
                                  sum(len(b) for b in encoded)),
                   problems=problems, host=host)


def _codec_after(corpus: list, outcome: Outcome) -> None:
    """The pickle baseline on the same corpus: a layer metric only."""
    naive = NaiveCodec()
    t0 = time.perf_counter()
    for m in corpus:
        naive.encode_message(m)
    outcome.host["net.wire.naive_encode_us_per_msg"] = (
        (time.perf_counter() - t0) * 1e6 / len(corpus))


# ---------------------------------------------------------------------------

WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("pop_ramp", "open loop in virtual time", "session",
             _pop_ramp_setup, _population_run),
    Workload("write_storm", "closed, 1 client, window 8", "member mutation",
             _storm_setup, _storm_run),
    Workload("drain_audit", "closed, 1 client", "element yielded",
             _drain_setup, _drain_run),
    Workload("overload_knee", "open loop past capacity", "session",
             _overload_setup, _population_run),
    Workload("kernel_storm", "n/a", "kernel event",
             _kernel_setup, _kernel_run),
    Workload("codec_roundtrip", "n/a", "message",
             _codec_setup, _codec_run, _codec_after),
)}
