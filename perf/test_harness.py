"""The benchmark's own checks: ``python -m pytest perf -q``.

Outside ``testpaths`` on purpose, so tier-1 does not get slower.
"""

from __future__ import annotations

import copy
import json
import os
import re

import pytest

import compare
import layers
import run

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_every_module_maps_to_exactly_one_layer():
    package = os.path.join(ROOT, "src", "repro")
    known = set(layers.LAYERS) | {layers.OTHER}
    unmapped = []
    for dirpath, _dirs, files in os.walk(package):
        for filename in files:
            if filename.endswith(".py"):
                rel = os.path.relpath(os.path.join(dirpath, filename), package)
                if layers.layer_of_module(rel) not in known:
                    unmapped.append(rel)
    assert not unmapped, f"add these to perf/layers.py: {sorted(unmapped)}"
    # Every named layer has at least one file behind it.
    mapped = {layers.layer_of_module(os.path.relpath(
        os.path.join(d, f), package))
        for d, _s, fs in os.walk(package) for f in fs if f.endswith(".py")}
    assert set(layers.LAYERS) <= mapped


def test_names_match_benchmark_json():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert ({m["name"]: m["unit"] for m in spec["end_to_end"]}
            == dict(run.END_TO_END + (run.OK_OP_SHARE,)))
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == run.per_layer_units())
    for group in ("workloads", "end_to_end", "per_layer"):
        for entry in spec[group]:
            assert NAME.fullmatch(entry["name"]), entry["name"]
    assert spec["paths"] == ["perf"]


def test_functions_sharing_a_label_are_added_up():
    """Every dataclass's generated __init__ has the label ("<string>", 2,
    "__init__"); pstats keeps one of them, merged_stats their sum."""
    import cProfile
    from dataclasses import dataclass

    @dataclass
    class A:
        x: int

    @dataclass
    class B:
        y: int

    assert A.__init__.__code__ is not B.__init__.__code__
    assert layers._label(A.__init__.__code__) == layers._label(
        B.__init__.__code__)

    def make():
        for i in range(5):
            A(i)
        for i in range(7):
            B(i)

    profile = cProfile.Profile()
    profile.enable()
    make()
    profile.disable()
    stats = layers.merged_stats(profile)
    calls, _self_s, _cumulative_s, callers = stats[
        layers._label(A.__init__.__code__)]
    assert calls == 12
    assert callers[layers._label(make.__code__)][0] == 12


@pytest.fixture(scope="module")
def small_pop_ramp():
    """A 1/20-size pop_ramp, measured twice in this process."""
    return [run.measure("pop_ramp", seed=0, seconds=0.0, scale=0.05,
                        min_passes=1) for _ in range(2)]


def test_counts_and_digest_repeat_exactly(small_pop_ramp):
    first, second = small_pop_ramp
    assert first["correct"] and second["correct"], first["problems"]
    assert (first["end_to_end"]["pycalls_per_op"]
            == second["end_to_end"]["pycalls_per_op"])
    assert first["sim_digest"] == second["sim_digest"]
    assert first["sim"] == second["sim"]


def test_self_share_sums_to_one(small_pop_ramp):
    result = small_pop_ramp[0]
    shares = [v for k, v in result["per_layer"].items()
              if k.endswith(".self_share")]
    assert len(shares) == len(layers.LAYERS) + 1
    assert abs(sum(shares) - 1.0) < 1e-6
    calls = sum(v for k, v in result["per_layer"].items()
                if k.endswith(".self_calls"))
    assert calls == result["trace"]["total_calls"]


def test_printed_names_are_the_declared_names(small_pop_ramp, capsys):
    result = small_pop_ramp[0]
    run.print_result(result)
    printed = set()
    for line in capsys.readouterr().out.splitlines():
        if line.startswith("pop_ramp "):
            name = line.split()[1]
            assert NAME.fullmatch(name), name
            printed.add(name)
    declared = (set(dict(run.END_TO_END)) | set(run.per_layer_units())
                | {"sim_digest"})
    assert printed == declared
    for trace in (0, 1):
        line = json.loads(run.driver_line(result, trace))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        spec = _benchmark_json()
        group = "per_layer" if trace else "end_to_end"
        assert set(line["metrics"]) == {m["name"] for m in spec[group]}


def _artifact(result: dict) -> dict:
    return {"meta": {"commit": "unknown"},
            "workloads": {"pop_ramp": copy.deepcopy(result)}}


def test_compare_flags_a_drop_and_passes_identical_inputs(small_pop_ramp):
    base = _artifact(small_pop_ramp[0])
    # Seven tight samples, as a quiet machine gives.
    workload = base["workloads"]["pop_ramp"]
    workload["norm_ops_per_s_samples"] = [1000.0 + i for i in range(7)]
    workload["end_to_end"]["norm_ops_per_s"] = 1003.0
    verdicts = {r["metric"]: r["verdict"] for r in compare.compare(base, base)}
    assert set(verdicts.values()) <= {"same", "n/a"}, verdicts

    # A drop five points past the declared bound is flagged, and so is a
    # 15% rise in the exact call count, at its own tighter bound.
    bound = compare.load_bounds()["norm_ops_per_s"][0]
    keep = 1.0 - (bound + 0.05)
    slower = copy.deepcopy(base)
    workload = slower["workloads"]["pop_ramp"]
    workload["norm_ops_per_s_samples"] = [
        v * keep for v in workload["norm_ops_per_s_samples"]]
    workload["end_to_end"]["norm_ops_per_s"] *= keep
    workload["end_to_end"]["pycalls_per_op"] *= 1.15
    verdicts = {r["metric"]: r["verdict"]
                for r in compare.compare(base, slower)}
    assert verdicts["norm_ops_per_s"] == "worse"
    assert verdicts["pycalls_per_op"] == "worse"
    assert verdicts["peak_rss_mb"] == "same"

    drifted = copy.deepcopy(base)
    drifted["workloads"]["pop_ramp"]["sim_digest"] = "0" * 32
    verdicts = {r["metric"]: r["verdict"]
                for r in compare.compare(base, drifted)}
    assert verdicts["sim_digest"] == "differs"


def test_same_commit_compares_exact_metrics_with_equality(small_pop_ramp):
    base = _artifact(small_pop_ramp[0])
    # sim_op_p95_s is undefined (0) on a pass this small.
    for group, metric in (("end_to_end", "pycalls_per_op"),
                          ("sim", "sim_op_p50_s"),
                          ("sim", "sim_bytes_per_op"),
                          ("sim", "failed_op_share")):
        # 1% off, or +0.001 on the failed share: inside every bound, so
        # only the same-commit comparison may object.
        off = copy.deepcopy(base)
        values = off["workloads"]["pop_ramp"][group]
        if metric == "failed_op_share":
            values[metric] += 0.001
        else:
            assert values[metric] > 0
            values[metric] *= 1.01
        across = {r["metric"]: r["verdict"]
                  for r in compare.compare(base, off)}
        assert across[metric] == "same", metric
        within = {r["metric"]: r["verdict"]
                  for r in compare.compare(base, off, exact=True)}
        assert within.pop(metric) == "differs", metric
        assert "differs" not in within.values(), within
