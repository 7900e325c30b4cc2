"""Every experiment's table has the shape its claim predicts.

``CLAIMS`` maps each id of :data:`repro.bench.ALL_EXPERIMENTS` to the
assertions its :class:`~repro.bench.ExperimentResult` must satisfy: the
paper's prose claims as result shapes (EXPERIMENTS.md).  One test runs
each experiment exactly as ``python -m repro.bench`` does, prints its
table (``pytest tests/test_experiments.py -s`` shows them all) and
applies that id's claim.  The numbers themselves are held byte for byte
by ``experiments_output.txt`` and ``ci/bench_baseline.json``.
"""

import math

import pytest

from repro.bench import ALL_EXPERIMENTS, run_prefetch
from repro.bench.exp_disconnected import _IMPLS
from repro.bench.exp_static import PAPER_TAXONOMY


# -- E1: the conformance matrix -------------------------------------------------

def _cell(rows, impl, spec_id):
    row = next(r for r in rows if r["impl"] == impl)
    conforming, total = row[spec_id].split("/")
    return int(conforming), int(total)


def claim_e1(result):
    """The diagonal conforms; strictly weaker implementations violate
    stricter figures."""
    rows = result.rows

    # the diagonal: every implementation satisfies its own figure
    for impl, spec_id in [("figure1", "fig1"), ("immutable", "fig3"),
                          ("snapshot", "fig4"), ("grow-only", "fig5"),
                          ("dynamic", "fig6"),
                          ("per-run-immutable", "fig3-per-run"),
                          ("per-run-grow-only", "fig5-per-run")]:
        ok, total = _cell(rows, impl, spec_id)
        assert ok == total, f"{impl} must conform to {spec_id}"

    # an immutable environment satisfies everything (the figures coincide)
    for spec_id in ["fig1", "fig3", "fig4", "fig5", "fig6",
                    "fig3-per-run", "fig5-per-run"]:
        ok, total = _cell(rows, "immutable", spec_id)
        assert ok == total

    # mutation breaks the immutable figures for the mutable design points
    for impl in ["snapshot", "grow-only", "dynamic", "per-run-grow-only"]:
        for spec_id in ["fig1", "fig3"]:
            ok, _ = _cell(rows, impl, spec_id)
            assert ok == 0, f"{impl} must violate {spec_id} under mutation"

    # the snapshot iterator misses additions, so it violates the
    # pre-state figures; the dynamic iterator's removals violate fig5
    assert _cell(rows, "snapshot", "fig6")[0] == 0
    assert _cell(rows, "dynamic", "fig5")[0] == 0
    # grow-only behaviour is also fig6-acceptable (growth, no failure runs)
    ok, total = _cell(rows, "grow-only", "fig6")
    assert ok == total

    # §3.1/§3.3: mid-run mutation violates the per-run variants unless
    # the run is protected (locks for per-run-immutable, ghosts for
    # per-run-grow-only)
    assert _cell(rows, "snapshot", "fig3-per-run")[0] == 0
    assert _cell(rows, "dynamic", "fig5-per-run")[0] == 0
    ghost_ok, ghost_total = _cell(rows, "per-run-grow-only", "fig5")
    assert ghost_ok == ghost_total   # ghosts keep even strict fig5 happy
                                     # within the run's clipped window


# -- E2, E2a: time to the first element, early exit (§1.1 advantage 1) ---------

def claim_e2(result):
    rows = result.rows

    def row(members, impl_prefix):
        return next(r for r in rows
                    if r["members"] == members and r["impl"].startswith(impl_prefix))

    for members in {r["members"] for r in rows}:
        strong = row(members, "strong")
        for weak in ["fig4", "fig5", "fig6"]:
            weak_row = row(members, weak)
            # weak iterators stream: first element arrives at least 10x
            # earlier than the strong baseline's
            assert weak_row["time_to_first"] * 10 < strong["time_to_first"], (
                members, weak)
            # and everyone yields the full set in this failure-free world
            assert weak_row["yielded"] == members

    # the strong baseline's time-to-first grows with set size; the weak
    # iterators' stays flat
    strong_small = row(10, "strong")["time_to_first"]
    strong_large = row(160, "strong")["time_to_first"]
    assert strong_large > 8 * strong_small
    weak_small = row(10, "fig6")["time_to_first"]
    weak_large = row(160, "fig6")["time_to_first"]
    assert weak_large < 3 * weak_small


def claim_e2a(result):
    rows = result.rows

    def row(k, impl):
        return next(r for r in rows if r["wanted"] == k and r["impl"] == impl)

    for k in sorted({r["wanted"] for r in rows}):
        strong = row(k, "strong")
        weak = row(k, "fig6 dynamic")
        # the strong baseline pays the full prefetch price whatever K is
        assert strong["fraction_of_full_cost"] > 0.95
        # the weak iterator pays roughly K/N of the full cost
        assert weak["fraction_of_full_cost"] < 0.1
        assert weak["time_to_K"] * 10 < strong["time_to_K"]
    # weak cost grows with K
    weak_costs = [row(k, "fig6 dynamic")["time_to_K"]
                  for k in sorted({r["wanted"] for r in rows})]
    assert weak_costs == sorted(weak_costs)


# -- E3: parallel, closest-first prefetch (§1.1 advantage 2) --------------------

def claim_e3(result):
    rows = result.rows

    def row(files, variant_prefix):
        return next(r for r in rows
                    if r["files"] == files and r["variant"].startswith(variant_prefix))

    for files in sorted({r["files"] for r in rows}):
        strict = row(files, "strict")
        weak1 = row(files, "weak ls p=1")
        weak4 = row(files, "weak ls p=4")
        weak8 = row(files, "weak ls p=8 ")  # note the space: not random-order
        # parallelism cuts total latency, roughly linearly at this scale
        # (2.45x at 8 files: a weak ls is a conforming Figure 6 run, which
        # ends with a membership re-read and a primary confirm, +0.028 s a set)
        assert weak4["total_time"] < strict["total_time"] / 2.4
        assert weak8["total_time"] < weak1["total_time"] / 4
        # streaming cuts time-to-first even at parallelism 1
        assert weak1["time_to_first"] < strict["time_to_first"]

    # closest-first beats random order on total time at the larger size
    # (random order wastes early slots on far files)
    largest = max(r["files"] for r in rows)
    ordered = row(largest, "weak ls p=8 ")
    random_order = row(largest, "weak ls p=8 random-order")
    assert ordered["total_time"] <= random_order["total_time"]


# -- E4, E4a: availability under partitions, and its ablations ------------------

def claim_e4(result):
    rows = result.rows

    def row(rate, impl_prefix):
        return next(r for r in rows
                    if r["isolate_rate"] == rate and r["impl"].startswith(impl_prefix))

    rates = sorted({r["isolate_rate"] for r in rows})

    for rate in rates:
        strong = row(rate, "strong")
        pess = row(rate, "fig5")
        opt = row(rate, "fig6")
        # the ordering the paper's design space predicts
        assert opt["success_rate"] >= pess["success_rate"] >= strong["success_rate"]
        assert opt["mean_coverage"] >= pess["mean_coverage"] >= strong["mean_coverage"]
        # optimism never fails in this workload (failures are transient)
        assert opt["success_rate"] == 1.0

    # in the failure-free regime everyone succeeds
    assert row(0.0, "strong")["success_rate"] == 1.0

    # at the highest failure rate the gap is wide: strong loses most
    # runs while the optimistic iterator still answers in full
    worst = max(rates)
    assert row(worst, "strong")["success_rate"] <= 0.5
    assert row(worst, "fig6")["mean_coverage"] == 1.0
    # pessimistic keeps partial coverage high even when it fails
    assert row(worst, "fig5")["mean_coverage"] > row(worst, "strong")["mean_coverage"]
    # the price of optimism: waiting (higher latency at high failure rates)
    assert row(worst, "fig6")["mean_latency_ok"] > row(0.0, "fig6")["mean_latency_ok"]


def claim_e4a(result):
    rows = {r["variant"]: r for r in result.rows}
    primary = rows["fig5 primary-read (fail-fast)"]
    quorum = rows["fig5 quorum-read (fail-fast)"]
    slow5 = rows["fig5 primary-read (timeout-only)"]
    opt_fast = rows["fig6 optimistic (fail-fast)"]
    opt_slow = rows["fig6 optimistic (timeout-only)"]

    # quorum reads never hurt availability and cost extra read latency
    assert quorum["success_rate"] >= primary["success_rate"]
    assert quorum["mean_latency_ok"] > primary["mean_latency_ok"]

    # timeout-only discovery is never faster per run (the batched fetch
    # pipeline drains fig5 so quickly that successful runs are usually
    # fault-free, making both discovery modes identical there; fig6's
    # blocking retries still expose the strict gap below)...
    assert slow5["mean_latency_ok"] >= primary["mean_latency_ok"]
    assert opt_slow["mean_latency_ok"] > opt_fast["mean_latency_ok"]
    # ...and never *hurts* success (slow pessimism waits failures out)
    assert slow5["success_rate"] >= primary["success_rate"]

    # optimism is unaffected in outcome terms: it always completes
    assert opt_fast["success_rate"] == 1.0
    assert opt_slow["success_rate"] == 1.0


# -- E5, E5a: consistency cost vs mutation rate, and the cache ablation ---------

def claim_e5(result):
    rows = result.rows

    def row(rate, impl_prefix):
        return next(r for r in rows
                    if r["mutation_rate"] == rate and r["impl"].startswith(impl_prefix))

    rates = sorted({r["mutation_rate"] for r in rows})

    # the reference-object regime: no mutations, no inconsistency at all
    assert row(0.0, "fig4")["missed_adds_per_run"] == 0
    assert row(0.0, "fig4")["stale_yields_per_run"] == 0
    assert row(0.0, "fig6")["missed_adds_per_run"] == 0
    assert row(0.0, "fig6")["stale_yields_per_run"] == 0

    # fig4 misses additions, and misses more as the rate grows;
    # fig6's pre-state basis misses none
    top = max(rates)
    assert row(top, "fig4")["missed_adds_per_run"] > 0
    assert row(top, "fig4")["missed_adds_per_run"] >= row(0.5, "fig4")["missed_adds_per_run"]
    for rate in rates:
        assert row(rate, "fig6")["missed_adds_per_run"] == 0

    # both designs may yield members that get removed — the cost grows
    # with the mutation rate for both
    assert row(top, "fig4")["stale_yields_per_run"] > 0
    assert row(top, "fig6")["stale_yields_per_run"] > 0

    # fig6 yields more than the initial membership under heavy adds
    assert row(top, "fig6")["mean_yields"] > row(top, "fig4")["mean_yields"]


def claim_e5a(result):
    rows = result.rows
    no_cache = next(r for r in rows if r["ttl"] == 0.0)
    cached = next(r for r in rows if r["ttl"] == 10.0)
    # the cache makes the repeated query far cheaper...
    assert cached["second_query_time"] < no_cache["second_query_time"] / 10
    # ...and stale: the removed member is still served
    assert cached["second_query_stale_yields"] > 0
    assert no_cache["second_query_stale_yields"] == 0


# -- E6, E6b: lock hold time and blocked writers under strong semantics (§3.1) --

def claim_e6(result):
    rows = sorted(result.rows, key=lambda r: r["consumer_think_time"])

    # lock hold time grows with consumer think time (roughly linearly in
    # think_time x members), and the writer waits essentially all of it
    holds = [r["lock_hold_time"] for r in rows]
    waits = [r["writer_waited"] for r in rows]
    assert holds == sorted(holds)
    assert waits == sorted(waits)
    assert holds[-1] > 10 * holds[0]
    for r in rows:
        assert r["writer_waited"] >= r["lock_hold_time"] * 0.8


def claim_e6b(result):
    rows = result.rows
    no_lease = next(r for r in rows if r["lease"] == "none")
    with_lease = next(r for r in rows if r["lease"] != "none")
    # without leases the disconnected reader blocks the writer past the
    # whole observation horizon ("indefinitely")
    assert not no_lease["writer_completed"]
    assert isinstance(no_lease["writer_waited"], float) and math.isnan(no_lease["writer_waited"])
    # a lease bounds the damage
    assert with_lease["writer_completed"]
    assert with_lease["writer_waited"] < 10.0


# -- E7: the three §1 motivating queries, end-to-end under failures -------------

def claim_e7(result):
    rows = result.rows

    def row(query_prefix, semantics):
        return next(r for r in rows
                    if r["query"].startswith(query_prefix)
                    and r["semantics"] == semantics)

    for query in ["WWW", "LIS", "Chinese"]:
        dyn = row(query, "dynamic")
        strong = row(query, "strong")
        # the weak query always completes with the full answer
        assert dyn["success"]
        assert dyn["answers"] > 0
        # streaming: the first answer arrives far before strong's
        if strong["success"]:
            assert dyn["time_to_first"] * 5 < strong["time_to_first"]
            # both get the same answers when strong happens to succeed
            assert dyn["answers"] >= strong["answers"]
        else:
            assert strong["answers"] == 0   # all-or-nothing


# -- E8, E9: the §4 taxonomy and Figure 2's reachability model ------------------

def claim_e8(result):
    rows = {r["spec"]: r for r in result.rows}
    for spec_id, (consistency, currency) in PAPER_TAXONOMY.items():
        assert rows[spec_id]["consistency"] == consistency, spec_id
        assert rows[spec_id]["currency"] == currency, spec_id
        assert rows[spec_id]["matches_paper"] is True or rows[spec_id]["matches_paper"] == "yes"


def claim_e9(result):
    rows = result.rows

    # the exact Figure 2 observations
    sigma = next(r for r in rows if r["scenario"].startswith("fig2 sigma ("))
    sigma_prime = next(r for r in rows if r["scenario"].startswith("fig2 sigma'"))
    assert sigma["reachable"] == 3 and sigma["exists"] == 3
    assert sigma_prime["reachable"] == 2 and sigma_prime["exists"] == 3

    # at scale: cutting k of n nodes removes exactly their members from
    # reachable(a) and never changes existence
    for r in rows:
        if not r["scenario"].startswith("random split"):
            continue
        n = r["members"]
        cut = n // 4
        assert r["exists"] == n
        assert r["reachable"] == n - cut


# -- E10: §3.3's ghost protocol vs plain immediate removal ----------------------

def claim_e10(result):
    rows = result.rows
    ghost = next(r for r in rows if r["policy"] == "grow-during-run")
    plain = next(r for r in rows if r["policy"].startswith("any"))

    # the ghost protocol keeps the run growth-only and covers every
    # initial member, deferring removals to run end
    assert ghost["grow_only_during_run"] is True or ghost["grow_only_during_run"] == "yes"
    assert ghost["coverage_of_initial"] == 1.0
    # the removals did take effect eventually (purged at run end)
    assert ghost["final_size"] < 10

    # immediate removal loses members mid-run and breaks grow-only
    assert plain["coverage_of_initial"] < 1.0
    assert plain["grow_only_during_run"] in (False, "no")
    # both end at the same final membership
    assert plain["final_size"] == ghost["final_size"]


# -- E11: federated search across independent repositories ----------------------

def claim_e11(result):
    rows = {r["plan"]: r for r in result.rows}

    healthy = rows["union (healthy world)"]
    skip = rows["union (skip failures)"]
    single = rows["repo A only"]
    fail = rows["union (fail on failure)"]

    # the healthy federation answers with the full deduplicated union
    assert healthy["success"]
    assert healthy["answers"] == 8 + 8 + 4     # uniques + shared once
    assert healthy["dups_suppressed"] == 4

    # skip-on-failure degrades exactly to the surviving repository
    assert skip["success"]
    assert skip["answers"] == single["answers"] == 12

    # fail-on-failure is all-or-nothing brittle
    assert not fail["success"]
    assert fail["answers"] < skip["answers"]


# -- E12: scale sweep (simulated cost + message accounting) ---------------------

def claim_e12(result):
    rows = result.rows

    def row(members, impl_prefix):
        return next(r for r in rows
                    if r["members"] == members and r["impl"].startswith(impl_prefix))

    sizes = sorted({r["members"] for r in rows})

    for impl in ["strong", "fig4", "fig5", "fig6"]:
        overheads = [row(n, impl)["msgs_per_member"] for n in sizes]
        # O(1) messages per member: overhead flat (within constants)
        assert max(overheads) < 2 * min(overheads), impl
        # simulated time scales ~linearly with members
        times = [row(n, impl)["sim_time"] for n in sizes]
        assert times == sorted(times)
        assert times[-1] > 10 * times[0]

    for n in sizes:
        # fig5's pre-state semantics re-read membership every invocation:
        # ~2 more messages per member than first-state
        assert row(n, "fig5")["msgs_per_member"] > row(n, "fig4")["msgs_per_member"] + 1
        # fig6 plans its fetches through the batched pipeline, amortizing
        # membership reads across yields: per-member overhead lands within
        # a small constant of first-state and well below fig5's
        assert row(n, "fig6")["msgs_per_member"] < row(n, "fig4")["msgs_per_member"] + 0.5
        assert row(n, "fig6")["msgs_per_member"] < row(n, "fig5")["msgs_per_member"] - 1


# -- E13: the system under a user population ------------------------------------

def claim_e13(result):
    rows = {r["semantics"]: r for r in result.rows}
    dynamic = rows["dynamic"]
    strong = rows["strong"]
    prio = rows["strong + writer-priority"]

    # everyone's queries complete in this failure-free run
    assert dynamic["queries_ok"] == strong["queries_ok"] == 24
    assert dynamic["publishes_ok"] == strong["publishes_ok"] == 6

    # the headline: publishes never wait under weak semantics, and pay
    # dearly under strong (serialized behind every read-locked query)
    assert dynamic["publish_mean"] * 50 < strong["publish_mean"]

    # the batched fetch pipeline erased the old counterpoint: dynamic
    # used to pay a membership re-read per element, which made strong's
    # full-drain latency lower despite its lock waits.  With fetches
    # planned and coalesced, dynamic now wins the full drain too — while
    # strong still queues behind the publisher's write lock.
    assert dynamic["query_mean"] < strong["query_mean"]
    assert strong["query_mean"] < 8 * dynamic["query_mean"]

    # writer priority does not lose publishes and keeps them no slower
    assert prio["publishes_ok"] == 6
    assert prio["publish_mean"] <= strong["publish_mean"] * 1.5


# -- E14, E15: re-run until agreement (§3.2); the failure detector's trade-off --

def claim_e14(result):
    rows = sorted(result.rows, key=lambda r: r["mutation_rate"])

    quiet = rows[0]
    busiest = rows[-1]

    # quiescent sets stabilize every time, in exactly two rounds
    assert quiet["mutation_rate"] == 0.0
    assert quiet["stable_rate"] == 1.0
    assert quiet["mean_rounds_when_stable"] == 2.0
    assert quiet["mean_final_discrepancy"] == 0.0

    # stability degrades monotonically-ish with churn, and at the
    # highest rate most runs never agree within the budget
    stable_rates = [r["stable_rate"] for r in rows]
    assert stable_rates[0] >= stable_rates[-1]
    assert busiest["stable_rate"] <= 0.5
    assert busiest["mean_final_discrepancy"] > 0


def claim_e15(result):
    rows = sorted(result.rows, key=lambda r: r["suspect_after"])

    latencies = [r["mean_detect_latency"] for r in rows]
    false_counts = [r["false_suspicions_total"] for r in rows]

    # the classic trade-off: detection latency rises with the threshold...
    assert latencies == sorted(latencies)
    # ...while false suspicions fall
    assert false_counts == sorted(false_counts, reverse=True)

    # the extremes: aggressive detects within ~1 ping period; conservative
    # produces (almost) no false suspicions on this loss rate
    assert latencies[0] < 1.0
    assert false_counts[-1] <= 1
    assert false_counts[0] > 10

    # recovery latency is threshold-independent (one successful ping
    # refreshes last_ok): identical across rows
    recoveries = {round(r["mean_recover_latency"], 6) for r in rows}
    assert len(recoveries) == 1


# -- E16: resilient RPC (retries, hedging, breakers, failover) under crashes ----

def claim_e16(result):
    rows = result.rows

    def row(rate, variant):
        return next(r for r in rows
                    if r["crash_rate"] == rate and r["variant"] == variant)

    rates = sorted({r["crash_rate"] for r in rows})

    # Safety first: recovery machinery may reorder or repeat work, but it
    # must never invent or resurrect elements — the weak guarantee holds
    # for every variant at every fault rate.
    assert all(r["spec_ok"] for r in rows)

    # Failure-free regime: everyone completes, and resilience adds no
    # recovery work (nothing to retry, fail over, or trip).
    for variant in ("no-retry", "retry+failover", "retry+hedge+breaker"):
        assert row(0.0, variant)["completion_rate"] == 1.0
    assert row(0.0, "retry+failover")["failovers"] == 0
    assert row(0.0, "retry+hedge+breaker")["breaker_trips"] == 0

    # The headline claim: at every nonzero crash rate, retry+failover
    # completes strictly more drains than the bare client over the same
    # seeded worlds.
    for rate in rates:
        if rate == 0.0:
            continue
        bare = row(rate, "no-retry")
        resilient = row(rate, "retry+failover")
        assert resilient["completion_rate"] > bare["completion_rate"]
        assert resilient["mean_coverage"] >= bare["mean_coverage"]
        # and the machinery demonstrably engaged
        assert resilient["retries"] > 0

    # The full stack actually exercises its extra machinery somewhere in
    # the sweep: hedges fire on heavy-tail links, breakers trip on
    # repeat offenders.
    full_rows = [r for r in rows if r["variant"] == "retry+hedge+breaker"]
    assert sum(r["hedges"] for r in full_rows) > 0
    assert sum(r["breaker_trips"] for r in full_rows if r["crash_rate"] > 0) > 0


# -- E17: the observability layer itself ----------------------------------------

def claim_e17(result):
    """Spans nest (every ``rpc.attempt`` traces back to a workload root
    span — the client's ``drain``, or a background protocol's
    ``sync.round`` / ``repair.scrub`` / ``recovery.replay``) and the
    recovery layer's counters reach the registry."""
    by_metric = {r["metric"]: r for r in result.rows}

    # The simulation did real work and the registry saw it.
    assert by_metric["kernel.events"]["value"] > 0
    assert by_metric["net.messages_sent"]["value"] > 0
    assert by_metric["rpc.attempts"]["value"] > 0
    # Faults engaged the resilience machinery, and the client's registry
    # counters recorded it.
    assert by_metric["rpc.retries"]["value"] > 0
    assert by_metric["drain.yields"]["value"] > 0

    # The nesting invariant the tracer promises: every rpc.attempt span
    # reaches a workload root span (drain / sync.round / repair.scrub /
    # recovery.replay) by parent links.
    assert by_metric["spans.drain"]["value"] > 0
    assert by_metric["spans.rpc_attempt"]["value"] > 0
    assert (by_metric["spans.nested_attempts"]["value"]
            == by_metric["spans.rpc_attempt"]["value"])
    # attempt ⊂ rpc.call ⊂ drain (at least), fetch adds a level
    assert by_metric["spans.max_depth"]["value"] >= 3
    # The background protocols are real RPC users now: anti-entropy
    # rounds ran and every server write-ahead-logged its mutations.
    assert by_metric["sync.rounds"]["value"] > 0

    # Histograms saw every attempt (a handful may be cut short by the
    # drain's give-up bound killing in-flight generators).
    assert by_metric["rpc.attempt_latency"]["value"] > 0
    assert by_metric["drain.latency"]["mean"] > 0


# -- E18: crash-consistent recovery: WAL + replay + scrub vs the ablation -------

def claim_e18(result):
    rows = result.rows

    def row(rate, wal):
        return next(r for r in rows
                    if r["crash_rate"] == rate and r["wal"] == wal)

    rates = sorted({r["crash_rate"] for r in rows})

    # The acceptance bar: with the WAL and recovery protocol on, every
    # seeded schedule settles with zero invariant violations — at every
    # crash rate, including the failure-free baseline.
    for rate in rates:
        assert row(rate, "on")["violations"] == 0, rate

    # The ablation proves the protocol is doing the work: the same
    # schedules without recovery leave lasting violations as soon as
    # crash points actually fire.
    for rate in rates:
        if rate == 0.0:
            assert row(rate, "off")["violations"] == 0
            continue
        assert row(rate, "off")["crashes"] > 0
        assert row(rate, "off")["violations"] > 0, rate

    # Recovery demonstrably engaged where crashes happened...
    for rate in rates:
        on = row(rate, "on")
        if rate == 0.0:
            assert on["replays"] == 0
            continue
        assert on["crashes"] > 0
        assert on["replays"] > 0 and on["replayed"] > 0
        # ...and its roll-forward work took measurable virtual time
        # (some crash points land at "begin", so replays redo real RPC).
        assert on["mean_replay_latency"] > 0
        # recovery is never free: the recovered system sends more
        # messages than the ablated one over the same schedule
        assert on["messages"] > row(rate, "off")["messages"]

    # Anti-entropy rides the same fabric in every configuration.
    assert all(r["sync_rounds"] > 0 for r in rows)


# -- E19, E20: the batched fetch and write pipelines vs the serial paths --------

def claim_e19(result):
    rows = result.rows
    serial = next(r for r in rows if r["mode"] == "serial")

    # pipelining may never weaken fig6: zero violations anywhere
    assert all(r["violations"] == 0 for r in rows)

    # the acceptance bar: a batched drain is strictly faster than the
    # serial read path on the WAN for every window >= 4
    for r in rows:
        if r["mode"] == "window-sweep" and r["window"] >= 4:
            assert r["total_time"] < serial["total_time"]
            assert r["speedup_vs_serial"] > 1.0

    # wider windows monotonically shrink the drain on a quiet WAN
    window_rows = sorted((r for r in rows if r["mode"] == "window-sweep"),
                         key=lambda r: r["window"])
    totals = [r["total_time"] for r in window_rows]
    assert totals == sorted(totals, reverse=True)

    # slow start: the first yield never waits on coalesced company, so
    # time-to-first stays at the serial baseline's throughout the sweep
    for r in rows:
        assert r["time_to_first"] <= serial["time_to_first"] * 1.05


def claim_e20(result):
    rows = result.rows

    # batching may never weaken the specs: every populated world drains
    # under fig4 and fig6 semantics with zero conformance violations
    perf_rows = [r for r in rows if r["mode"] != "crash"]
    assert all(r["fig4_viol"] == 0 for r in perf_rows)
    assert all(r["fig6_viol"] == 0 for r in perf_rows)

    # the acceptance bar: >= 3x speedup for bulk population at
    # window >= 4, batch >= 4, 2 object replicas
    for r in rows:
        if (r["mode"] == "window-sweep" and r["window"] >= 4) \
                or (r["mode"] == "batch-sweep" and r["batch"] >= 4):
            assert r["replicas"] == 2
            assert r["speedup_vs_serial"] >= 3.0

    # wider windows monotonically shrink population on a quiet WAN
    window_rows = sorted((r for r in rows if r["mode"] == "window-sweep"),
                         key=lambda r: r["window"])
    totals = [r["total_time"] for r in window_rows]
    assert totals == sorted(totals, reverse=True)

    # the concurrent fan-out pays at every replica count: batched beats
    # serial even with zero replicas (pipelining + put coalescing alone)
    assert all(r["speedup_vs_serial"] > 1.0 for r in rows
               if r["mode"] == "replica-sweep")

    # crash legs: the group-committed WAL path settles to zero invariant
    # violations under mid-add_members crash injection; the WAL-off
    # ablation must leak (dangling members nothing heals) — and both
    # legs must have actually crashed, or the test proves nothing
    crash = {r["wal"]: r for r in rows if r["mode"] == "crash"}
    assert crash["on"]["crashes"] > 0
    assert crash["off"]["crashes"] > 0
    assert crash["on"]["recovery_viol"] == 0
    assert crash["off"]["recovery_viol"] > 0


# -- E21, E21a-c: disconnected operation ----------------------------------------

def claim_e21(result):
    def row(impl, state):
        return next(r for r in result.rows
                    if r["impl"] == impl and r["state"] == state)

    # Everyone succeeds while connected.
    for impl, *_ in _IMPLS:
        assert row(impl, "connected")["success_rate"] == 1.0, impl

    # Figure 1 permits offline reads: full coverage from the warm cache,
    # instantly, with zero spec-conformance violations.
    offline_fig1 = row("fig1 immutable", "offline")
    assert offline_fig1["success_rate"] == 1.0
    assert offline_fig1["mean_coverage"] == 1.0
    assert offline_fig1["fig1_conformant"] == "yes"
    assert offline_fig1["mean_latency"] < 0.01

    # The reachability-requiring semantics are unavailable offline —
    # and discover it instantly instead of burning give_up_after (10s)
    # or the lock wait (2s): the DisconnectedError fail-fast satellite.
    for impl in ("fig5 pessimistic", "fig6 optimistic", "strong"):
        offline = row(impl, "offline")
        assert offline["success_rate"] == 0.0, impl
        assert offline["mean_latency"] < 0.1, impl


def claim_e21a(result):
    rows = result.rows
    # Classification is exact at every depth: one conflict (tombstoned
    # name re-added remotely), one drop (plain tombstone), one locally
    # cancelled add/remove pair — everything else replays.
    for row in rows:
        assert row["conflicts"] == 1 and row["dropped"] == 1
        assert row["cancelled"] == 2
        assert row["replayed"] == row["queued"] - 4
        assert row["drain_s"] > 0
    # Deeper outboxes replay more but the batched pipeline amortizes:
    # cost grows far slower than linearly in the replayed count.
    first, last = rows[0], rows[-1]
    assert last["replayed"] > 8 * first["replayed"]
    assert last["drain_s"] < 8 * first["drain_s"] * 2


def claim_e21b(result):
    def row(outbox):
        return next(r for r in result.rows if r["outbox"] == outbox)

    # The acceptance bar: the durable outbox is item-precise across a
    # client crash mid-drain — nothing lost, nothing applied twice,
    # zero invariant violations, on every seeded schedule.
    durable = row("durable")
    assert durable["lost"] == 0
    assert durable["leaked_adds"] == 0
    assert durable["double_applied"] == 0
    assert durable["violations"] == 0

    # The ablation proves durability (not luck) is doing the work.
    volatile = row("volatile")
    assert volatile["lost"] > 0
    assert volatile["leaked_adds"] > 0
    assert volatile["double_applied"] == 0


def claim_e21c(result):
    for row in result.rows:
        assert row["flaps"] > 0 and row["sessions"] >= row["flaps"]
        assert row["replayed"] > 0          # offline work really landed
        assert row["violations"] == 0       # and the world settled clean
    with_dc = next(r for r in result.rows if r["dc_rate"] > 0)
    assert with_dc["dc_partitions"] > 0     # correlated partitions fired


# -- E22: population-scale load -------------------------------------------------

def claim_e22(result):
    """A 10⁵-client open-loop population finishes its ramp with every
    per-stage SLO met and *zero* sampled spec-conformance violations
    (each audit is a recorded Figure-6 iteration checked inline)."""
    total = next(r for r in result.rows if r["stage"] == "total")
    stages = [r for r in result.rows if r["stage"] != "total"]

    # 10⁵+ open-loop clients arrived, and the drain grace was enough:
    # every session completed (open-loop offered load never wedges).
    assert total["arrivals"] >= 100_000
    assert total["completions"] == total["arrivals"]

    # Every stage meets its SLOs; audited iterations never violate
    # the Figure-6 specification.
    for row in stages:
        assert row["slo_ok"], row
        assert row["audit_violations"] == 0, row
    metrics = result.metrics
    assert metrics["population.audits"] > 0
    assert metrics["population.audit_violations"] == 0


# -- E23: overload protection, plateau vs congestion collapse -------------------

#: Protected final-stage goodput must stay within this fraction of the
#: arm's best stage (no post-knee decline).
MIN_PLATEAU_FRACTION = 0.9

#: The protected arm must actually deliver at least raw worker
#: capacity (4 workers / 10 ms = 400/s) in its heaviest stage —
#: brownout reads push it above, shedding must not drag it below.
MIN_PROTECTED_GOODPUT = 400.0

#: Bounded-latency gate for successful sessions under full overload.
MAX_PROTECTED_P95_S = 1.0

#: Collapse gates: the ablation's final stage vs its own peak, and vs
#: the protected arm's final stage.
MAX_COLLAPSE_VS_OWN_PEAK = 0.5
MAX_COLLAPSE_VS_PROTECTED = 0.3


def claim_e23(result):
    """* **protected arm** — goodput through the saturation knee is
    monotone non-collapsing, the heaviest stage's goodput stays at (or
    above) its peak, successful-session p95 stays bounded, and admission
    control actually engaged (sheds, brownouts, budget exhaustions > 0).
    * **ablation arm** — the same capacity behind an unbounded queue and
    budget-less retries collapses: the final stage's goodput falls to a
    fraction of both its own peak and the protected arm's final stage.
    * **crash leg** — a primary crash mid-overload under a writer-heavy
    mix leaks zero cross-component invariants and the post-recovery
    recorded Figure-6 iteration is conformant."""
    m = result.metrics
    stages = {arm: [r for r in result.rows
                    if r["arm"] == arm and r["stage"] not in ("total",
                                                              "verdict")]
              for arm in ("protected", "ablation", "crash")}

    # Open-loop arrivals all land (drain grace was enough) in both arms.
    for arm in ("protected", "ablation"):
        total = next(r for r in result.rows
                     if r["arm"] == arm and r["stage"] == "total")
        assert total["completions"] >= 0.99 * total["arrivals"], total

    # Protected: monotone non-collapsing goodput through the knee ...
    goodputs = [r["goodput"] for r in stages["protected"]]
    for earlier, later in zip(goodputs, goodputs[1:]):
        assert later >= 0.95 * earlier, goodputs
    # ... a final stage at/above the plateau and above raw capacity ...
    assert m["protected.goodput_final"] >= (
        MIN_PLATEAU_FRACTION * m["protected.goodput_peak"]), m
    assert m["protected.goodput_final"] >= MIN_PROTECTED_GOODPUT, m
    # ... with bounded p95 for the sessions that succeeded.
    assert m["protected.p95_ok_final_s"] <= MAX_PROTECTED_P95_S, m

    # Admission control engaged: sheds, brownout reads, budget stops.
    assert m["protected.shed"] > 0
    assert m["protected.brownout_served"] > 0
    assert m["protected.retry_budget_exhausted"] > 0
    # The ablation has no admission control to engage.
    assert m["ablation.shed"] == 0
    assert m["ablation.brownout_served"] == 0

    # Ablation: congestion collapse past the knee.
    assert m["ablation.goodput_final"] <= (
        MAX_COLLAPSE_VS_OWN_PEAK * m["ablation.goodput_peak"]), m
    assert m["ablation.goodput_final"] <= (
        MAX_COLLAPSE_VS_PROTECTED * m["protected.goodput_final"]), m

    # Conformance: audited iterations ran in the protected arm and
    # none violated Figure 6 — brownout reads are legal weak-set
    # behavior.  (The ablation is allowed to violate: overload-induced
    # omissions of reachable members are exactly the pathology.)
    assert m["protected.audits"] > 0
    assert m["protected.audit_violations"] == 0

    # Crash leg: overload + crash + recovery leaks nothing.
    assert m["crash.invariant_leaks"] == 0, m
    assert m["crash.conformant"] == 1, m
    assert m["crash.shed"] > 0


# -- E24: the sharded membership registry ---------------------------------------

#: The tentpole gate: 4 shards vs 1 at identical per-server capacity.
MIN_SPEEDUP_4X = 2.5


def claim_e24(result):
    """* **throughput** — at fixed per-server capacity, the 4-shard ring
    must register at >= 2.5x the single-shard rate, and the curve must
    be monotone in ring size.
    * **conformance** — every implementation (the E1 matrix plus the
    quorum and strong cross-shard protocols) conforms to its figure on
    every seed when reads scatter-gather across 3 shards + 2 mirrors.
    * **rebalance** — add_shard/remove_shard under churn (with the
    migration target crashed mid-handoff on some seeds) completes with
    zero invariant violations, zero lost acked members, zero resurrected
    removals, and a scatter read that agrees with ground truth."""
    m = result.metrics

    # Throughput scales with the ring, and the big arm clears the gate.
    assert m["speedup.4_vs_1"] >= MIN_SPEEDUP_4X, m
    assert (m["throughput.1_shard"] <= m["throughput.2_shard"]
            <= m["throughput.4_shard"]), m

    # Conformance: every impl, every seed, against its own figure.
    assert m["conformance.all"] == 1, m

    # Rebalance under churn (including mid-migration target crashes).
    assert m["rebalance.violations"] == 0, m
    assert m["rebalance.lost"] == 0, m
    assert m["rebalance.resurrected"] == 0, m
    assert m["rebalance.foreign"] == 0, m
    assert m["rebalance.scatter_mismatch"] == 0, m
    assert m["rebalance.incomplete"] == 0, m


# -- E25: the real wire: codec bytes, bandwidth, byte-aware batching ------------

def claim_e25(result):
    rows = result.rows
    by_mode = {}
    for r in rows:
        by_mode.setdefault(r["mode"], []).append(r)

    ratios = {r["member_size"]: r["naive_over_compact"]
              for r in by_mode["codec-ratio"]}
    caps = {r["max_bytes"]: r for r in by_mode["byte-cap"]}

    # the wire may not weaken the specs: every drain in every leg is
    # audited (fig6; the snapshot audit row is fig4) with zero violations
    assert all(r["violations"] == 0 for r in rows)

    # the codec gate: >= 4x fewer bytes on the metadata drain.  The
    # 2KB-body row is the honesty row — declared payload bytes are
    # charged identically by both codecs, so the ratio shrinks toward 1
    # as bodies dominate, but compact never ships MORE than naive.
    assert ratios[0] >= 4.0
    assert 1.0 <= ratios[2048] < ratios[0]

    # the batch sweet spot shifts once transmission cost is real: with
    # free links bigger batches never hurt (the window hides the round
    # trips); under the WAN preset a 16-item multi-get reply pays every
    # constrained store-and-forward hop serially and loses to batch=1
    sweep = {(r["link"], r["batch"]): r for r in by_mode["batch-sweep"]}
    assert sweep[("free", 16)]["total_time"] \
        <= sweep[("free", 1)]["total_time"] * 1.01
    assert sweep[("wan", 16)]["total_time"] \
        > sweep[("wan", 1)]["total_time"] * 1.10

    # the byte-cap gate: capping batches by bytes (item cap unchanged at
    # 16) must beat uncapped batching on drain throughput under WAN
    assert caps[49152]["throughput"] > caps[0]["throughput"]

    # bandwidth queuing is observable where it exists, and only there
    assert all(r["queue_p95"] == 0 for r in by_mode["batch-sweep"]
               if r["link"] == "free")
    assert any(r["queue_p95"] > 0 for r in by_mode["batch-sweep"]
               if r["link"] == "wan")

    # same seed, same bytes — the wire is deterministic
    det = by_mode["determinism"][0]
    assert det["throughput"] == 1.0 and det["violations"] == 0


CLAIMS = {
    "E1": claim_e1, "E2": claim_e2, "E2a": claim_e2a, "E3": claim_e3,
    "E4": claim_e4, "E4a": claim_e4a, "E5": claim_e5, "E5a": claim_e5a,
    "E6": claim_e6, "E6b": claim_e6b, "E7": claim_e7, "E8": claim_e8,
    "E9": claim_e9, "E10": claim_e10, "E11": claim_e11, "E12": claim_e12,
    "E13": claim_e13, "E14": claim_e14, "E15": claim_e15, "E16": claim_e16,
    "E17": claim_e17, "E18": claim_e18, "E19": claim_e19, "E20": claim_e20,
    "E21": claim_e21, "E21a": claim_e21a, "E21b": claim_e21b,
    "E21c": claim_e21c, "E22": claim_e22, "E23": claim_e23, "E24": claim_e24,
    "E25": claim_e25,
}


@pytest.mark.parametrize("eid", list(ALL_EXPERIMENTS))
def test_experiment(eid):
    result = ALL_EXPERIMENTS[eid]()
    print()
    print(result)
    CLAIMS[eid](result)


def test_e3_rows_repeat_within_one_process():
    """The random-order row's iterator submits frozensets, whose order
    follows the hash seed and the process-global oid counter; the
    planner's unordered branch is name order, so a second run in the
    same process (other oids) reads the same."""
    assert run_prefetch(sizes=(8,)).rows == run_prefetch(sizes=(8,)).rows
