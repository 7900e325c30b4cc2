"""``ci/check_digests.py``'s verdict: what moved, and what crept over its
call-count ceiling."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "check_digests", os.path.join(ROOT, "ci", "check_digests.py"))
check_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_digests)


def _row(calls: str, digest: str = "d0") -> dict:
    return {"sim_digest": digest, "sim_op_p50_s": "0.1", "sim_op_p95_s": "0",
            "sim_bytes_per_op": "100", "failed_op_share": "0",
            "pycalls_per_op": calls}


def test_a_run_with_no_committed_count_is_moved_not_crept():
    expected = {"pop_ramp@0": _row("100")}
    measured = {"pop_ramp@0": _row("100"), "new_load@0": _row("250")}
    moved, crept = check_digests.compare(expected, measured, 0.05)
    assert crept == []
    assert moved and all(line.startswith("new_load@0 ") for line in moved)
    assert "new_load@0 sim_digest: None -> d0" in moved


def test_a_count_is_held_to_its_ceiling():
    expected = {"pop_ramp@0": _row("100"), "pop_ramp@1": _row("200")}
    measured = {"pop_ramp@0": _row("104"), "pop_ramp@1": _row("212")}
    moved, crept = check_digests.compare(expected, measured, 0.05)
    assert moved == []
    assert crept == ["pop_ramp@1 pycalls_per_op: 200 -> 212 (ceiling +5%)"]
    # a cheaper run passes; a committed run that was not measured moved
    moved, crept = check_digests.compare(
        expected, {"pop_ramp@0": _row("50")}, 0.05)
    assert crept == []
    assert moved == ["pop_ramp@1: in ci/sim_digests.json but not run"]


def test_a_moved_digest_is_reported_whatever_the_count():
    moved, crept = check_digests.compare(
        {"w@0": _row("100", "d0")}, {"w@0": _row("90", "d1")}, 0.05)
    assert moved == ["w@0 sim_digest: d0 -> d1"] and crept == []
