"""The ``BENCH_obs.json`` artifact: one schema for every bench run.

Both entry points into the evaluation emit the same shape —

* ``python -m repro.bench --obs BENCH_obs.json E1 E16 …`` writes it
  directly, and
* a pytest run of ``benchmarks/`` collects every experiment result a
  ``bench_*.py`` registers via :func:`record_result` and (when
  ``REPRO_BENCH_OBS`` names a path) writes it at session end — the CI
  bench-smoke job's artifact.

The schema (version ``repro.bench_obs/1``)::

    {
      "schema": "repro.bench_obs/1",
      "meta": {...},                       # free-form run metadata
      "experiments": [
        {"id": "E16", "title": "...", "columns": [...],
         "rows": [{...}, ...], "notes": "...",
         "metrics": {...}}                 # optional registry view
      ]
    }

Rows and metrics are seeded simulation numbers and nothing else, so a
given (code, seed) produces a byte-identical artifact on any machine.
That determinism is what lets ``python -m repro.bench compare`` (see
:mod:`repro.bench.compare`) gate every table at ``--tolerance 0``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Optional, Union

from .report import ExperimentResult

__all__ = ["SCHEMA", "record_result", "recorded", "clear_recorded",
           "make_artifact", "write_artifact", "load_artifact"]

SCHEMA = "repro.bench_obs/1"

#: Experiment records registered by the current process's bench runs.
_RECORDS: list[dict] = []


def record_result(result: ExperimentResult,
                  metrics: Optional[dict[str, Any]] = None) -> dict:
    """Register one experiment result for the session artifact.

    ``metrics`` attaches a registry snapshot (or any JSON-safe mapping)
    when the caller has one.  Returns the record appended.
    """
    record = result.to_obs()
    if metrics:
        record["metrics"] = dict(metrics)
    _RECORDS.append(record)
    return record


def recorded() -> list[dict]:
    return list(_RECORDS)


def clear_recorded() -> None:
    _RECORDS.clear()


def make_artifact(records: Optional[list[dict]] = None,
                  meta: Optional[dict[str, Any]] = None) -> dict:
    return {
        "schema": SCHEMA,
        "meta": dict(meta) if meta else {},
        "experiments": records if records is not None else recorded(),
    }


def write_artifact(path: Union[str, Path],
                   records: Optional[list[dict]] = None,
                   meta: Optional[dict[str, Any]] = None) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    artifact = make_artifact(records, meta)
    path.write_text(json.dumps(artifact, indent=2, sort_keys=True,
                               default=str) + "\n", encoding="utf-8")
    return path


def load_artifact(path: Union[str, Path]) -> dict:
    artifact = json.loads(Path(path).read_text(encoding="utf-8"))
    schema = artifact.get("schema")
    if schema != SCHEMA:
        raise ValueError(
            f"{path}: expected schema {SCHEMA!r}, found {schema!r}"
        )
    if not isinstance(artifact.get("experiments"), list):
        raise ValueError(f"{path}: missing 'experiments' list")
    return artifact
