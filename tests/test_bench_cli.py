"""The `python -m repro.bench` CLI."""

import pytest

from repro.bench.__main__ import main


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
    from repro.bench import ALL_EXPERIMENTS
    for eid in ["E1", "E2", "E2a", "E3", "E4", "E4a", "E5", "E5a",
                "E6", "E6b", "E7", "E8", "E9", "E10", "E11",
                "E12", "E13", "E14", "E15"]:
        assert eid in ALL_EXPERIMENTS


def test_cli_markdown_mode(capsys):
    assert main(["--markdown", "E8"]) == 0
    out = capsys.readouterr().out
    assert "### E8" in out
    assert "| spec |" in out or "| spec " in out
    assert "|---|" in out


def test_cli_help(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "experiments:" in out


def test_markdown_formatting_unit():
    from repro.bench.report import format_markdown
    rows = [{"a": 1, "b": True}, {"a": 2.5, "b": None}]
    text = format_markdown(rows)
    lines = text.splitlines()
    assert lines[0] == "| a | b |"
    assert lines[1] == "|---|---|"
    assert "| 1 | yes |" in text
    assert "| 2.5000 | - |" in text
    assert format_markdown([]) == "*(empty)*"


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
    assert "wrote" in capsys.readouterr().out


def test_cli_obs_artifact_and_stdout_are_reproducible(tmp_path, capsys):
    """A committed number is a simulated number: the same experiments
    run twice write the same bytes and print the same text."""
    path = tmp_path / "BENCH_obs.json"
    runs = []
    for _ in range(2):
        assert main(["--obs", str(path), "E8", "E12"]) == 0
        runs.append((path.read_bytes(), capsys.readouterr().out))
    assert runs[0] == runs[1]


def test_cli_obs_flag_requires_path(capsys):
    assert main(["--obs"]) == 2


# ---------------------------------------------------------------------------
# the compare regression gate
# ---------------------------------------------------------------------------

def write_fake_artifact(path, latency=1.0, spec="fig3", elapsed=0.5,
                        extra_experiment=False, drop_row=False):
    from repro.bench.artifact import write_artifact
    rows = [{"impl": "DynamicSet", "latency": latency, "spec": spec},
            {"impl": "StrongSet", "latency": 2.0, "spec": "fig4"}]
    if drop_row:
        rows = rows[:1]
    records = [{"id": "E98", "title": "fake", "columns": ["impl", "latency", "spec"],
                "rows": rows, "notes": "", "elapsed_wall_s": elapsed}]
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
    """Only ``rows`` are gated, so an artifact written by an older tree
    (whose records carry ``elapsed_wall_s``) still compares clean."""
    old = write_fake_artifact(tmp_path / "old.json", elapsed=0.5)
    new = write_fake_artifact(tmp_path / "new.json", elapsed=50.0)
    assert main(["compare", old, new, "--tolerance", "0.01"]) == 0


def test_compare_flags_injected_latency_regression(tmp_path, capsys):
    old = write_fake_artifact(tmp_path / "old.json", latency=1.0)
    new = write_fake_artifact(tmp_path / "new.json", latency=1.5)
    assert main(["compare", old, new, "--tolerance", "0.1"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "latency" in out


def test_compare_within_tolerance_passes(tmp_path):
    old = write_fake_artifact(tmp_path / "old.json", latency=1.0)
    new = write_fake_artifact(tmp_path / "new.json", latency=1.05)
    assert main(["compare", old, new, "--tolerance", "0.1"]) == 0


def test_compare_warn_only_downgrades_exit(tmp_path, capsys):
    old = write_fake_artifact(tmp_path / "old.json", latency=1.0)
    new = write_fake_artifact(tmp_path / "new.json", latency=9.0)
    assert main(["compare", old, new, "--tolerance", "0.1", "--warn-only"]) == 0
    assert "WARN" in capsys.readouterr().out


def test_compare_non_numeric_mismatch_fails_at_any_tolerance(tmp_path, capsys):
    old = write_fake_artifact(tmp_path / "old.json", spec="fig3")
    new = write_fake_artifact(tmp_path / "new.json", spec="fig4")
    assert main(["compare", old, new, "--tolerance", "99"]) == 1


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
    """A latency that *shrank* beyond tolerance is baseline rot, not a
    regression: exit 0, but the gate says to regenerate the baseline."""
    old = write_fake_artifact(tmp_path / "old.json", latency=1.0)
    new = write_fake_artifact(tmp_path / "new.json", latency=0.4)
    assert main(["compare", old, new, "--tolerance", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "IMPROVED" in out
    assert "regenerate the baseline" in out
    assert "FAIL" not in out


def test_compare_improvement_does_not_mask_regressions(tmp_path, capsys):
    """One metric improving while another regresses still fails."""
    old = write_fake_artifact(tmp_path / "old.json", latency=1.0, spec="fig3")
    new = write_fake_artifact(tmp_path / "new.json", latency=0.4, spec="fig4")
    assert main(["compare", old, new, "--tolerance", "0.1"]) == 1
    out = capsys.readouterr().out
    assert "IMPROVED" in out and "FAIL" in out


def test_metric_direction_heuristic():
    from repro.bench.compare import metric_direction
    assert metric_direction("total_time") == "lower"
    assert metric_direction("p99_latency") == "lower"
    assert metric_direction("fig4_viol") == "lower"
    assert metric_direction("speedup_vs_serial") == "higher"
    # ambiguous names resolve lower-better first — a cost-ish marker must
    # never be read as good just because 'yield' also appears
    assert metric_direction("bytes_yielded") == "lower"
    assert metric_direction("cache_hits") == "higher"
    assert metric_direction("version") == "neutral"
    # bare percentile columns are latencies by table convention, and the
    # 'ok' in a successes-only percentile must not read as higher-better
    assert metric_direction("p95_s") == "lower"
    assert metric_direction("p95_ok_s") == "lower"


def test_compare_neutral_field_moves_are_regressions_both_ways(tmp_path):
    """A direction-less numeric field failing tolerance regresses no
    matter which way it moved."""
    from repro.bench.artifact import write_artifact
    from repro.bench.compare import compare_artifacts, load_artifact

    def art(path, version):
        records = [{"id": "E98", "title": "fake", "columns": ["version"],
                    "rows": [{"version": version}], "notes": ""}]
        write_artifact(path, records)
        return load_artifact(path)

    old = art(tmp_path / "old.json", 10)
    for new_value in (3, 30):
        new = art(tmp_path / f"new{new_value}.json", new_value)
        regressions, improvements, _ = compare_artifacts(old, new,
                                                         tolerance=0.1)
        assert regressions and not improvements


def test_compare_baseline_against_current_e17_schema(tmp_path):
    """The committed CI baseline stays loadable and self-consistent."""
    from pathlib import Path
    from repro.bench.artifact import load_artifact
    baseline = Path(__file__).resolve().parent.parent / "ci" / "bench_baseline.json"
    artifact = load_artifact(baseline)
    ids = {e["id"] for e in artifact["experiments"]}
    assert "E17" in ids
    assert main(["compare", str(baseline), str(baseline)]) == 0
