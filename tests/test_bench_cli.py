"""The `python -m repro.bench` CLI."""

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
    """An experiment cannot be added without a gate, a baseline entry and
    a write-up: the registry, both committed renderings, EXPERIMENTS.md's
    headings and the ``benchmarks/`` wrappers name the same experiments."""
    import ast
    import re
    from repro.bench import ALL_EXPERIMENTS
    from repro.bench.artifact import load_artifact
    ids = list(ALL_EXPERIMENTS)
    baseline = load_artifact(ROOT / "ci" / "bench_baseline.json")
    assert [e["id"] for e in baseline["experiments"]] == ids
    printed = (ROOT / "experiments_output.txt").read_text(encoding="utf-8")
    assert re.findall(r"^\[(E\w+)\]", printed, flags=re.M) == ids
    written_up = re.findall(r"^## (E\d+)\b",
                            (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8"),
                            flags=re.M)
    assert set(written_up) == {eid.rstrip("abc") for eid in ids}
    called = {node.func.id
              for path in (ROOT / "benchmarks").glob("bench_*.py")
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert {run.__name__ for run in ALL_EXPERIMENTS.values()} <= called


def test_cli_help(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "experiments:" in out
    assert "--markdown" not in out         # tables print one way: ASCII


# ---------------------------------------------------------------------------
# --obs artifact emission
# ---------------------------------------------------------------------------

def test_cli_obs_writes_schema_versioned_artifact(tmp_path, capsys):
    from repro.bench.artifact import SCHEMA, load_artifact
    path = tmp_path / "BENCH_obs.json"
    assert main(["--obs", str(path), "E8"]) == 0
    artifact = load_artifact(path)
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


# ---------------------------------------------------------------------------
# the compare gate: equality
# ---------------------------------------------------------------------------

def write_fake_artifact(path, latency=1.0, spec="fig3", elapsed=0.5,
                        extra_experiment=False, drop_row=False,
                        metrics=None, notes="", columns=("impl", "latency", "spec"),
                        title="fake", extra_key=False):
    from repro.bench.artifact import write_artifact
    rows = [{"impl": "DynamicSet", "latency": latency, "spec": spec},
            {"impl": "StrongSet", "latency": 2.0, "spec": "fig4"}]
    if drop_row:
        rows = rows[:1]
    if extra_key:
        rows[0]["retries"] = 3
    records = [{"id": "E98", "title": title, "columns": list(columns),
                "rows": rows, "notes": notes, "elapsed_wall_s": elapsed}]
    if metrics is not None:
        records[0]["metrics"] = metrics
    if extra_experiment:
        records.append({"id": "E99", "title": "new", "columns": ["x"],
                        "rows": [{"x": 1}], "notes": ""})
    write_artifact(path, records)
    return str(path)


def test_compare_identical_inputs_exit_zero(tmp_path, capsys):
    a = write_fake_artifact(tmp_path / "a.json")
    assert main(["compare", a, a]) == 0
    assert "OK" in capsys.readouterr().out


def test_compare_ignores_wall_clock_noise(tmp_path, capsys):
    """Record keys outside the five gated fields (title, columns, rows,
    notes, metrics) are ignored: an experiment writes nothing else."""
    old = write_fake_artifact(tmp_path / "old.json", elapsed=0.5)
    new = write_fake_artifact(tmp_path / "new.json", elapsed=50.0)
    assert main(["compare", old, new]) == 0


def test_compare_flags_injected_latency_regression(tmp_path, capsys):
    old = write_fake_artifact(tmp_path / "old.json", latency=1.0)
    new = write_fake_artifact(tmp_path / "new.json", latency=1.5)
    assert main(["compare", old, new]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "latency" in out


def test_compare_row_value_moving_down_fails(tmp_path, capsys):
    """The gate has no welcome direction: a refactor that moves a
    simulated number *down* has still moved it."""
    old = write_fake_artifact(tmp_path / "old.json", latency=1.0)
    new = write_fake_artifact(tmp_path / "new.json", latency=0.4)
    assert main(["compare", old, new]) == 1
    assert "E98 row 0: latency 1.0 -> 0.4" in capsys.readouterr().out


def test_compare_metrics_block_is_gated(tmp_path, capsys):
    """``metrics`` is written by the experiment and compared like a row,
    rows being equal or not."""
    old = write_fake_artifact(tmp_path / "old.json",
                              metrics={"speedup": {"window4": 3.0}, "shed": 7})
    new = write_fake_artifact(tmp_path / "new.json",
                              metrics={"speedup": {"window4": 1.0}, "shed": 7})
    assert main(["compare", old, new]) == 1
    out = capsys.readouterr().out
    assert "E98 metrics: speedup" in out and "shed" not in out
    gone = write_fake_artifact(tmp_path / "gone.json")
    assert main(["compare", old, gone]) == 1


def test_compare_row_key_only_in_new_fails(tmp_path, capsys):
    old = write_fake_artifact(tmp_path / "old.json")
    new = write_fake_artifact(tmp_path / "new.json", extra_key=True)
    assert main(["compare", old, new]) == 1
    assert "field 'retries' appeared" in capsys.readouterr().out
    assert main(["compare", new, old]) == 1
    assert "field 'retries' disappeared" in capsys.readouterr().out


@pytest.mark.parametrize("field, value", [
    ("notes", "reworded"),
    ("columns", ("impl", "spec", "latency")),
    ("title", "renamed"),
], ids=["notes", "columns", "title"])
def test_compare_names_the_differing_record_field(tmp_path, capsys, field, value):
    old = write_fake_artifact(tmp_path / "old.json")
    new = write_fake_artifact(tmp_path / "new.json", **{field: value})
    assert main(["compare", old, new]) == 1
    assert f"E98: {field} " in capsys.readouterr().out


def test_compare_rejects_the_retired_flags(tmp_path, capsys):
    """A script still passing a tolerance fails loudly, not open."""
    a = write_fake_artifact(tmp_path / "a.json")
    assert main(["compare", a, a, "--tolerance", "0"]) == 2
    assert main(["compare", a, a, "--warn-only"]) == 2


def test_compare_non_numeric_mismatch_fails_at_any_tolerance(tmp_path, capsys):
    old = write_fake_artifact(tmp_path / "old.json", spec="fig3")
    new = write_fake_artifact(tmp_path / "new.json", spec="fig4")
    assert main(["compare", old, new]) == 1


def test_compare_missing_experiment_is_a_regression(tmp_path):
    old = write_fake_artifact(tmp_path / "old.json", extra_experiment=True)
    new = write_fake_artifact(tmp_path / "new.json")
    assert main(["compare", old, new]) == 1


def test_compare_new_experiment_is_informational(tmp_path):
    old = write_fake_artifact(tmp_path / "old.json")
    new = write_fake_artifact(tmp_path / "new.json", extra_experiment=True)
    assert main(["compare", old, new]) == 0


def test_compare_row_count_mismatch_is_a_regression(tmp_path):
    old = write_fake_artifact(tmp_path / "old.json")
    new = write_fake_artifact(tmp_path / "new.json", drop_row=True)
    assert main(["compare", old, new]) == 1


def test_compare_unreadable_file_exits_two(tmp_path, capsys):
    a = write_fake_artifact(tmp_path / "a.json")
    assert main(["compare", a, str(tmp_path / "missing.json")]) == 2


def test_compare_bad_schema_exits_two(tmp_path):
    import json
    a = write_fake_artifact(tmp_path / "a.json")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "other/9", "experiments": []}))
    assert main(["compare", a, str(bad)]) == 2


def test_compare_improvement_passes_but_is_flagged(tmp_path, capsys):
    """Inverted with the comparator: a latency that *shrank* used to exit
    0 under an IMPROVED banner; every table is simulated, so it is a
    moved table like any other and fails."""
    old = write_fake_artifact(tmp_path / "old.json", latency=1.0)
    new = write_fake_artifact(tmp_path / "new.json", latency=0.4)
    assert main(["compare", old, new]) == 1
    out = capsys.readouterr().out
    assert "FAIL: 1 field(s) differ" in out
    assert "IMPROVED" not in out


def test_compare_neutral_field_moves_are_regressions_both_ways(tmp_path):
    """A numeric field differs no matter which way it moved — and a NaN
    (a table's ``-``) equals the NaN beside it."""
    from repro.bench.artifact import load_artifact, write_artifact
    from repro.bench.compare import compare_artifacts

    def art(path, version):
        records = [{"id": "E98", "title": "fake", "columns": ["version"],
                    "rows": [{"version": version, "mean": float("nan")}],
                    "notes": ""}]
        write_artifact(path, records)
        return load_artifact(path)

    old = art(tmp_path / "old.json", 10)
    assert compare_artifacts(old, art(tmp_path / "same.json", 10)) == ([], [])
    for new_value in (3, 30):
        new = art(tmp_path / f"new{new_value}.json", new_value)
        differences, notes = compare_artifacts(old, new)
        assert len(differences) == 1 and not notes


def test_compare_baseline_against_current_e17_schema(tmp_path):
    """The committed CI baseline stays loadable and self-consistent."""
    from repro.bench.artifact import load_artifact
    baseline = ROOT / "ci" / "bench_baseline.json"
    artifact = load_artifact(baseline)
    ids = {e["id"] for e in artifact["experiments"]}
    assert "E17" in ids
    assert main(["compare", str(baseline), str(baseline)]) == 0
