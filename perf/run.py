#!/usr/bin/env python3
"""The host-time benchmark: one command, six workloads.

    python3 perf/run.py                       # all six, writes perf/out/
    python3 perf/run.py --workload pop_ramp --seed 3 --seconds 10 --trace 1
    python3 perf/run.py --selfcheck           # two full sets must agree

A single-workload run measures in this process: untraced passes for
``--seconds`` (each bracketed by the calibration loop), then one pass
under ``cProfile`` for the exact call count and the per-layer
attribution.  It prints every metric by name with its unit, checks the
outputs, writes ``perf/out/trace_<workload>.json``, and ends with the
one-line JSON result the benchmark driver reads (``--trace 0``: the
end-to-end metrics, ``--trace 1``: the per-layer metrics).  Without
``--workload`` each workload runs in its own subprocess and the merged
artifact is written to ``perf/out/BENCH_perf.json``.

Host time is what the simulator costs us; ``sim_*`` is what the
modelled system would cost its users.  See perf/README.md.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
# Runnable as `python3 perf/run.py` from a bare checkout: the package is
# found in src/ whether or not PYTHONPATH names it.
for _path in (os.path.join(ROOT, "src"), HERE):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import calibrate  # noqa: E402
import layers  # noqa: E402

#: untraced passes per run, whatever --seconds says
MIN_PASSES = 5
#: imports of the package a run times for setup_s (fresh interpreters)
IMPORT_REPEATS = 7
DEFAULT_SECONDS = 15
WORKLOAD_NAMES = ("pop_ramp", "write_storm", "drain_audit", "overload_knee",
                  "kernel_storm", "codec_roundtrip")

#: (name, unit) of the end-to-end metrics every workload reports
END_TO_END = (
    ("norm_ops_per_s", "ops/ref_s"),
    ("pycalls_per_op", "calls"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
)
#: The driver's form of failed_op_share (it wants an end-to-end metric
#: that is never 0): 1 - failed_op_share, derived in driver_line only.
OK_OP_SHARE = ("ok_op_share", "fraction")
#: simulated-side metrics: virtual time and bytes, repeat exactly
SIM = (
    ("sim_op_p50_s", "s"),
    ("sim_op_p95_s", "s"),
    ("sim_bytes_per_op", "bytes"),
    ("failed_op_share", "fraction"),
)
#: a p95 needs at least ten samples beyond it
P95_MIN_SAMPLES = 200

HOST_UNITS = {
    "host.wall_s": "s", "host.cpu_s": "s", "host.calib_s": "s",
    "host.ops_per_s": "1/s", "host.events_per_s": "1/s",
    "host.msgs_per_s": "1/s", "host.trace_overhead_x": "x",
    "host.gc_collections": "count", "sim.us_per_event": "us",
    "net.wire.measure_us_per_msg": "us", "net.wire.encode_us_per_msg": "us",
    "net.wire.decode_us_per_msg": "us",
    "net.wire.naive_encode_us_per_msg": "us",
    "spec.check_ms_per_trace": "ms",
}
COUNTER_UNITS = {
    "sim.events_per_op": "count", "net.wire.measures_per_send": "count",
    "net.transport.msgs_per_op": "count",
    "net.transport.bytes_per_msg": "bytes",
    "net.transport.dropped_share": "fraction",
    "net.topology.route_calls_per_msg": "count",
    "net.topology.queue_delay_p95_s": "s",
    "net.resilience.retry_share": "fraction",
    "net.resilience.budget_exhausted": "count",
    "net.executor.shed_share": "fraction",
    "net.executor.brownout_share": "fraction",
    "net.executor.queue_wait_p95_s": "s",
    "store.repository.membership_reads_per_op": "count",
    "store.repository.cache_hit_share": "fraction",
    "store.fetchplan.elements_per_batch": "count",
    "store.fetchplan.coalesced_share": "fraction",
    "store.fetchplan.retries": "count",
    "store.writeplan.elements_per_batch": "count",
    "store.writeplan.fanout_per_op": "count",
    "store.wal.intents_per_op": "count",
    "store.sharding.scatter_reads_per_op": "count",
    "store.sharding.write_reroutes": "count",
    "weaksets.yields_per_drain": "count",
    "weaksets.time_to_first_p50_s": "s",
    "spec.audits": "count", "spec.violations": "count",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name a traced run prints, with its unit."""
    units: dict[str, str] = {}
    for layer in layers.LAYERS + (layers.OTHER,):
        units[f"{layer}.self_share"] = "fraction"
        units[f"{layer}.self_calls"] = "calls"
    units.update(HOST_UNITS)
    units.update(COUNTER_UNITS)
    units.update(SIM)
    return units


# ---------------------------------------------------------------------------
# measuring one workload, in this process
# ---------------------------------------------------------------------------

def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _gc_collections() -> int:
    return sum(gen["collections"] for gen in gc.get_stats())


_IMPORT_PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:]; "
                 "t = time.perf_counter(); import workloads; "
                 "print(time.perf_counter() - t)")


def _import_workloads():
    """Import the workloads, and with them the ``repro`` package.

    Returns the module and the median import time, in reference seconds,
    over this process and ``IMPORT_REPEATS - 1`` fresh interpreters, each
    bracketed by the calibration loop as a pass is: one import is one
    noisy sample, and ``setup_s`` has to show work a later PR moves to
    import time.
    """
    samples = []
    calib_before = calibrate.calibrate()
    for repeat in range(IMPORT_REPEATS):
        if repeat == 0:
            t0 = time.perf_counter()
            import workloads
            seconds = time.perf_counter() - t0
        else:
            probe = subprocess.run(
                [sys.executable, "-c", _IMPORT_PROBE,
                 os.path.join(ROOT, "src"), HERE],
                stdout=subprocess.PIPE, text=True, check=True, timeout=120)
            seconds = float(probe.stdout)
        calib_after = calibrate.calibrate()
        samples.append(_reference(seconds, (calib_before + calib_after) / 2.0))
        calib_before = calib_after
    return workloads, statistics.median(samples)


def _reference(seconds: float, calib_s: float) -> float:
    """Host seconds as *reference seconds*: what they would have been
    with the calibration loop at its defining-box speed."""
    return seconds * calibrate.REFERENCE_S / calib_s


def measure(name: str, seed: int, seconds: float, scale: float = 1.0,
            min_passes: int = MIN_PASSES) -> dict:
    """Run one workload: timed passes, then the counted pass."""
    workloads, import_s = _import_workloads()
    workload = workloads.WORKLOADS[name]

    problems: list[str] = []
    passes: list[dict] = []
    outcome = None
    started = time.perf_counter()
    calib_before = calibrate.calibrate()
    while True:
        gc.collect()
        t_setup = time.perf_counter()
        state = workload.setup(seed, scale)
        setup_s = time.perf_counter() - t_setup
        collections = _gc_collections()
        cpu0, t_run = time.process_time(), time.perf_counter()
        outcome = workload.run(state)
        wall = time.perf_counter() - t_run
        cpu = time.process_time() - cpu0
        collections = _gc_collections() - collections
        workload.after(state, outcome)
        del state
        calib_after = calibrate.calibrate()
        calib = (calib_before + calib_after) / 2.0
        calib_before = calib_after
        passes.append({
            "wall_s": wall, "cpu_s": cpu, "calib_s": calib,
            "setup_s": _reference(setup_s, calib),
            "gc_collections": collections,
            "norm_ops_per_s": outcome.ops / _reference(wall, calib),
            "digest": outcome.digest, "host": dict(outcome.host),
        })
        problems.extend(outcome.problems)
        elapsed = time.perf_counter() - started
        if (len(passes) >= min_passes
                and elapsed + elapsed / len(passes) > seconds):
            break

    # The counted pass: same inputs under cProfile.  Its wall is never
    # reported as a speed; it yields the exact call count and the layers.
    # The cyclic collector is off for it: when a collection happens to
    # run decides which dead daemon generators are closed (a counted
    # call each) inside the window, and that depends on the process's
    # allocation history, not on the workload.
    gc.collect()
    state = workload.setup(seed, scale)
    profile = cProfile.Profile()
    gc.disable()
    try:
        t_run = time.perf_counter()
        profile.enable()
        traced = workload.run(state)
        profile.disable()
        traced_wall = time.perf_counter() - t_run
    finally:
        gc.enable()
    del state
    problems.extend(traced.problems)
    stats = layers.merged_stats(profile)
    attribution = layers.attribute(stats)

    digests = {p["digest"] for p in passes} | {traced.digest}
    if len(digests) != 1:
        problems.append(f"sim_digest differs across passes: {sorted(digests)}")

    def median(key: str) -> float:
        return statistics.median(p[key] for p in passes)

    norm = [p["norm_ops_per_s"] for p in passes]
    q1, q3 = _quartiles(norm)
    ops, failed = outcome.ops, outcome.failed
    wall = median("wall_s")
    end_to_end = {
        "norm_ops_per_s": statistics.median(norm),
        "pycalls_per_op": attribution["total_calls"] / traced.ops,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": import_s + median("setup_s"),
    }
    latencies = outcome.latencies
    sim = {
        "sim_op_p50_s": workloads.percentile(latencies, 0.50),
        "sim_op_p95_s": (workloads.percentile(latencies, 0.95)
                         if len(latencies) >= P95_MIN_SAMPLES else 0.0),
        "sim_bytes_per_op": (outcome.sim_bytes / (ops - failed)
                             if ops > failed else 0.0),
        "failed_op_share": failed / ops,
    }

    per_layer = dict.fromkeys(per_layer_units(), 0.0)
    for layer, share in attribution["self_share"].items():
        per_layer[f"{layer}.self_share"] = share
        per_layer[f"{layer}.self_calls"] = attribution["self_calls"][layer]
    per_layer.update(traced.counters)
    if traced.messages:
        per_layer["net.wire.measures_per_send"] = layers.calls_to(
            stats, "net/wire.py", "measure") / traced.messages
        per_layer["net.topology.route_calls_per_msg"] = layers.calls_to(
            stats, "net/topology.py", "route") / traced.messages
    per_layer.update({
        "host.wall_s": wall, "host.cpu_s": median("cpu_s"),
        "host.calib_s": median("calib_s"),
        "host.ops_per_s": ops / wall,
        "host.events_per_s": outcome.events / wall,
        "host.msgs_per_s": outcome.messages / wall,
        "host.trace_overhead_x": traced_wall / wall,
        "host.gc_collections": median("gc_collections"),
    })
    if outcome.events:
        per_layer["sim.us_per_event"] = wall * 1e6 / outcome.events
    for key in outcome.host:
        per_layer[key] = statistics.median(p["host"][key] for p in passes)
    per_layer.update(sim)

    return {
        "workload": name, "op": workload.op, "loop": workload.loop,
        "seed": seed, "scale": scale,
        "passes": len(passes), "latency_samples": len(latencies),
        "attempted": ops, "sim_failed": failed,
        "correct": not problems, "problems": sorted(set(problems)),
        "end_to_end": end_to_end,
        "norm_ops_per_s_q1": q1, "norm_ops_per_s_q3": q3,
        "norm_ops_per_s_samples": norm,
        "wall_s_samples": [p["wall_s"] for p in passes],
        "calib_s_samples": [p["calib_s"] for p in passes],
        "sim": sim, "sim_digest": outcome.digest,
        "per_layer": per_layer,
        "trace": {k: attribution[k] for k in
                  ("profiled_s", "total_calls", "waits_on_s",
                   "top_functions")},
    }


def environment(seed: int, seconds: float) -> dict:
    """What two artifacts must share to be comparable."""
    return {
        "commit": _commit(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "seed": seed, "seconds": seconds,
        "min_passes": MIN_PASSES,
        "hashseed": os.environ.get("PYTHONHASHSEED", "random"),
        "reference_s": calibrate.REFERENCE_S,
    }


def _commit() -> str:
    """HEAD's hash, read from .git by hand (a benchmark checkout is not
    a repository, and git itself would read files outside it)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _fmt(value: float) -> str:
    return repr(value) if isinstance(value, int) else f"{value:.6g}"


def print_result(result: dict) -> None:
    name = result["workload"]
    print(f"== {name}: {result['passes']} passes, op = {result['op']}, "
          f"{result['attempted']} attempted, loop: {result['loop']}")
    for metric, unit in END_TO_END:
        extra = ""
        if metric == "norm_ops_per_s":
            extra = (f"  (q1 {_fmt(result['norm_ops_per_s_q1'])}, "
                     f"q3 {_fmt(result['norm_ops_per_s_q3'])}, "
                     f"n={result['passes']})")
        print(f"{name} {metric} {_fmt(result['end_to_end'][metric])} "
              f"{unit}{extra}")
    for metric, unit in SIM:
        extra = (f"  (n={result['latency_samples']})"
                 if metric.startswith("sim_op_") else "")
        print(f"{name} {metric} {_fmt(result['sim'][metric])} {unit}{extra}")
    print(f"{name} sim_digest {result['sim_digest']} hex")
    units = per_layer_units()
    already_printed = dict(SIM)
    for metric, value in result["per_layer"].items():
        if metric not in already_printed:
            print(f"{name} {metric} {_fmt(value)} {units[metric]}")
    for problem in result["problems"]:
        print(f"{name} CHECK FAILED: {problem}")


def driver_line(result: dict, trace: int) -> str:
    """The one-line JSON the benchmark driver reads."""
    if trace:
        units = per_layer_units()
        values = result["per_layer"]
    else:
        units = dict(END_TO_END + (OK_OP_SHARE,))
        values = dict(result["end_to_end"], ok_op_share=(
            1.0 - result["sim"]["failed_op_share"]))
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        # Harness-level failures only: a simulated session that is shed
        # or times out was simulated correctly (see failed_op_share).
        "failed": 0 if result["correct"] else result["attempted"],
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in units},
    })


def _write_json(path: str, payload: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def run_one(args) -> int:
    result = measure(args.workload, args.seed, args.seconds)
    result["meta"] = environment(args.seed, args.seconds)
    print_result(result)
    _write_json(os.path.join(OUT, f"trace_{args.workload}.json"), result)
    print(driver_line(result, args.trace))
    return 0 if result["correct"] else 1


# ---------------------------------------------------------------------------
# all six workloads, each in its own subprocess
# ---------------------------------------------------------------------------

def run_set(seed: int, seconds: float, artifact: str) -> tuple[dict, bool]:
    """One full set; returns (artifact, every check passed)."""
    results = {}
    ok = True
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
            stdout=subprocess.PIPE, text=True, timeout=600)
        # The child's last line is for the driver; the rest is the table.
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        sys.stdout.flush()
        if proc.returncode != 0:
            ok = False
        with open(os.path.join(OUT, f"trace_{name}.json")) as fh:
            result = json.load(fh)
        meta = result.pop("meta")
        result.pop("trace")
        results[name] = result
    payload = {"schema": "repro.perf/1", "meta": meta, "workloads": results}
    _write_json(artifact, payload)
    print(f"wrote {os.path.relpath(artifact)}")
    return payload, ok


#: --selfcheck gives up when the two sets' calibration medians are this
#: far apart.  Sets 30% apart still agreed on every normalised row here;
#: beyond half, the machine changed under the run.
CALIB_DRIFT_LIMIT = 0.5


def selfcheck(seed: int, seconds: float) -> int:
    """Two sets of the same tree must agree within the benchmark's own
    bounds; a machine too noisy to say so is reported as such."""
    import compare
    first, ok_a = run_set(seed, seconds,
                          os.path.join(OUT, "BENCH_perf.selfcheck_a.json"))
    second, ok_b = run_set(seed, seconds,
                           os.path.join(OUT, "BENCH_perf.json"))
    rows = compare.compare(first, second, exact=True)
    print(compare.render(rows))
    failures = [r for r in rows if r["verdict"] in ("worse", "differs")]
    for name in WORKLOAD_NAMES:
        a = first["workloads"][name]["per_layer"]["host.calib_s"]
        b = second["workloads"][name]["per_layer"]["host.calib_s"]
        if abs(a - b) > CALIB_DRIFT_LIMIT * min(a, b):
            print(f"selfcheck: machine too noisy on {name}: calibration "
                  f"loop took {a:.4f}s then {b:.4f}s; numbers not reported "
                  "as comparable")
            return 1
    if failures or not (ok_a and ok_b):
        print(f"selfcheck: FAILED ({len(failures)} row(s) disagree)")
        return 1
    print("selfcheck: two sets of the same tree agree")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)
    if args.selfcheck:
        return selfcheck(args.seed, args.seconds)
    if args.workload:
        if "PYTHONHASHSEED" not in os.environ:
            # Same interpreter, same arguments, hash seed pinned, so set
            # and dict layouts are not one more thing host time varies
            # with.  Call counts and sim_* do not depend on it.
            os.execve(sys.executable, [sys.executable] + sys.argv,
                      {**os.environ, "PYTHONHASHSEED": "0"})
        return run_one(args)
    _, ok = run_set(args.seed, args.seconds,
                    os.path.join(OUT, "BENCH_perf.json"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
