"""Tests for the bench reporting and metrics helpers."""


import pytest
from hypothesis import given, strategies as st

from repro.bench import ExperimentResult, format_table, rate, summarize


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_summarize_basic():
    s = summarize([1.0, 2.0, 3.0, 4.0])
    assert s.n == 4
    assert s.mean == pytest.approx(2.5)
    assert s.median == pytest.approx(2.5)
    assert s.minimum == 1.0 and s.maximum == 4.0


def test_summarize_single_value():
    s = summarize([7.0])
    assert s.n == 1
    assert s.mean == s.median == s.p95 == s.minimum == s.maximum == 7.0


def test_summarize_empty_is_none():
    assert summarize([]) is None


def test_summarize_p95_near_top():
    values = list(range(100))
    s = summarize(values)
    assert 94 <= s.p95 <= 95


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False), min_size=1, max_size=60))
def test_summarize_invariants(values):
    s = summarize(values)
    ulp = 1e-9 * max(1.0, abs(s.minimum), abs(s.maximum))
    assert s.minimum <= s.median <= s.maximum
    # the mean may exceed min/max by float-rounding of sum()/n
    assert s.minimum - ulp <= s.mean <= s.maximum + ulp
    assert s.minimum <= s.p95 <= s.maximum
    assert s.n == len(values)


def test_rate():
    assert rate(3, 4) == 0.75
    assert rate(0, 0) == 0.0
    assert rate(5, 0) == 0.0


def test_summary_str():
    text = str(summarize([1.0, 2.0]))
    assert "n=2" in text and "mean=" in text


# ---------------------------------------------------------------------------
# report formatting
# ---------------------------------------------------------------------------

def test_format_table_alignment_and_values():
    rows = [
        {"name": "alpha", "value": 1.2345, "flag": True},
        {"name": "b", "value": 10000.0, "flag": False},
    ]
    text = format_table(rows, title="demo")
    lines = text.splitlines()
    assert lines[0] == "demo"
    assert "name" in lines[1] and "value" in lines[1]
    assert "alpha" in text and "1.2345"[:5] in text
    assert "yes" in text and "no" in text
    assert "10000" in text


def test_format_table_empty():
    assert "(empty)" in format_table([])


def test_format_table_column_selection():
    rows = [{"a": 1, "b": 2, "c": 3}]
    text = format_table(rows, columns=["c", "a"])
    header = text.splitlines()[0]
    assert "c" in header and "a" in header and "b" not in header


def test_format_table_none_and_nan():
    rows = [{"x": None, "y": float("nan")}]
    text = format_table(rows)
    assert text.splitlines()[-1].count("-") >= 2


def test_experiment_result_add_and_str():
    result = ExperimentResult("EX", "demo experiment", notes="a note")
    result.add(metric="m1", value=1.0)
    result.add(metric="m2", value=2.0)
    text = str(result)
    assert "[EX] demo experiment" in text
    assert "m1" in text and "m2" in text
    assert "note: a note" in text


def test_experiment_result_respects_column_order():
    result = ExperimentResult("EX", "demo", columns=["b", "a"])
    result.add(a=1, b=2)
    header = str(result).splitlines()[1]
    assert header.index("b") < header.index("a")
