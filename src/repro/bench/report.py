"""Plain-text tables for experiment output.

Every experiment prints through these helpers so EXPERIMENTS.md and the
benchmark logs show identical rows.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Sequence

__all__ = ["format_table", "ExperimentResult"]


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        if abs(value) >= 1000:
            return f"{value:.0f}"
        if abs(value) >= 10:
            return f"{value:.2f}"
        return f"{value:.4f}"
    if value is None:
        return "-"
    return str(value)


def format_table(rows: Sequence[Mapping[str, Any]],
                 columns: Optional[Sequence[str]] = None,
                 title: str = "") -> str:
    """Render rows (dicts) as an aligned ASCII table."""
    if not rows:
        return f"{title}\n(empty)" if title else "(empty)"
    cols = list(columns) if columns else list(rows[0].keys())
    cells = [[_fmt(row.get(c)) for c in cols] for row in rows]
    widths = [max(len(c), *(len(r[i]) for r in cells)) for i, c in enumerate(cols)]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(c.ljust(widths[i]) for i, c in enumerate(cols))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for r in cells:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(cols))))
    return "\n".join(lines)


class ExperimentResult:
    """Rows + metadata for one experiment, printable as the paper table.

    ``metrics`` is the experiment's own headline block (JSON-safe, empty
    unless its ``run_*`` fills it): the numbers its gate reads, written to
    the artifact beside the rows and compared by the same gate.
    """

    def __init__(self, experiment_id: str, title: str,
                 rows: Optional[list[dict]] = None,
                 columns: Optional[Sequence[str]] = None,
                 notes: str = ""):
        self.experiment_id = experiment_id
        self.title = title
        self.rows: list[dict] = rows if rows is not None else []
        self.columns = columns
        self.notes = notes
        self.metrics: dict[str, Any] = {}

    def add(self, **fields: Any) -> None:
        self.rows.append(fields)

    def to_obs(self) -> dict:
        """The experiment as a BENCH_obs record (JSON-safe; see
        ``docs/observability.md`` for the schema)."""
        record = {
            "id": self.experiment_id,
            "title": self.title,
            "columns": list(self.columns) if self.columns else
                       (list(self.rows[0].keys()) if self.rows else []),
            "rows": [dict(row) for row in self.rows],
            "notes": self.notes,
        }
        if self.metrics:
            record["metrics"] = dict(self.metrics)
        return record

    def __str__(self) -> str:
        out = format_table(self.rows, self.columns,
                           title=f"[{self.experiment_id}] {self.title}")
        if self.notes:
            out += f"\n  note: {self.notes}"
        return out
