"""The `python -m repro.bench` CLI."""

import json
import re
from pathlib import Path

import pytest

from repro.bench.__main__ import main

ROOT = Path(__file__).resolve().parent.parent


def test_cli_runs_selected_experiments(capsys):
    assert main(["E8"]) == 0
    out = capsys.readouterr().out
    assert "[E8]" in out
    assert "Garcia-Molina" in out


def test_cli_accepts_lowercase_ids(capsys):
    assert main(["e9"]) == 0
    assert "[E9]" in capsys.readouterr().out


@pytest.mark.parametrize("typed", ["E2a", "e2a", "E2A"])
def test_cli_matches_mixed_case_ids_in_any_case(typed, capsys):
    # "E2a" itself used to be rejected: the CLI upper-cased every id
    assert main([typed]) == 0
    assert "[E2a]" in capsys.readouterr().out


def test_cli_runs_multiple(capsys):
    assert main(["E8", "E9"]) == 0
    out = capsys.readouterr().out
    assert "[E8]" in out and "[E9]" in out


def test_cli_rejects_unknown_ids(capsys):
    assert main(["E99"]) == 2
    err = capsys.readouterr().err
    assert "unknown experiment" in err


def test_registry_covers_all_documented_experiments():
    """An experiment cannot be added without a claim, a baseline entry and
    a write-up: the registry, both committed renderings, EXPERIMENTS.md's
    headings and ``tests/test_experiments.py``'s claims name the same
    experiments."""
    from repro.bench import ALL_EXPERIMENTS
    from test_experiments import CLAIMS
    ids = list(ALL_EXPERIMENTS)
    baseline = json.loads(
        (ROOT / "ci" / "bench_baseline.json").read_text(encoding="utf-8"))
    assert [e["id"] for e in baseline["experiments"]] == ids
    printed = (ROOT / "experiments_output.txt").read_text(encoding="utf-8")
    assert re.findall(r"^\[(E\w+)\]", printed, flags=re.M) == ids
    written_up = re.findall(r"^## (E\d+)\b",
                            (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8"),
                            flags=re.M)
    assert set(written_up) == {eid.rstrip("abc") for eid in ids}
    assert set(CLAIMS) == set(ALL_EXPERIMENTS)


def test_cli_help(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "experiments:" in out
    assert "--markdown" not in out         # tables print one way: ASCII


# ---------------------------------------------------------------------------
# --obs artifact emission
# ---------------------------------------------------------------------------

def test_cli_obs_writes_schema_versioned_artifact(tmp_path, capsys):
    from repro.bench.artifact import SCHEMA
    path = tmp_path / "BENCH_obs.json"
    assert main(["--obs", str(path), "E8"]) == 0
    artifact = json.loads(path.read_text(encoding="utf-8"))
    assert artifact["schema"] == SCHEMA
    (exp,) = artifact["experiments"]
    assert exp["id"] == "E8"
    assert exp["rows"] and exp["columns"]
    captured = capsys.readouterr()
    assert "wrote" in captured.err and "wrote" not in captured.out


def test_cli_obs_artifact_and_stdout_are_reproducible(tmp_path, capsys):
    """A committed number is a simulated number: the same experiments
    run twice write the same bytes and print the same text — the text
    they print without ``--obs``, so one run yields both renderings."""
    path = tmp_path / "BENCH_obs.json"
    runs = []
    for _ in range(2):
        assert main(["--obs", str(path), "E8", "E12"]) == 0
        runs.append((path.read_bytes(), capsys.readouterr().out))
    assert runs[0] == runs[1]
    assert main(["E8", "E12"]) == 0
    assert capsys.readouterr().out == runs[0][1]


def test_cli_obs_flag_requires_path(capsys):
    assert main(["--obs"]) == 2
