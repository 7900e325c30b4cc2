"""The ``BENCH_obs.json`` artifact: the evaluation as one JSON file.

``python -m repro.bench --obs BENCH_obs.json [E1 E16 …]`` is the only
producer: each experiment's :meth:`ExperimentResult.to_obs` record, in
run order.  The schema (version ``repro.bench_obs/1``)::

    {
      "schema": "repro.bench_obs/1",
      "meta": {...},                       # free-form run metadata
      "experiments": [
        {"id": "E16", "title": "...", "columns": [...],
         "rows": [{...}, ...], "notes": "...",
         "metrics": {...}}                 # the experiment's headline
      ]                                    # block; absent when empty
    }

Rows and metrics are seeded simulation numbers and nothing else, so a
given (code, seed) produces a byte-identical artifact on any machine.
That determinism is what lets ``python -m repro.bench compare`` (see
:mod:`repro.bench.compare`) gate every field by equality.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Optional, Union

__all__ = ["SCHEMA", "write_artifact", "load_artifact"]

SCHEMA = "repro.bench_obs/1"


def write_artifact(path: Union[str, Path], records: list[dict],
                   meta: Optional[dict[str, Any]] = None) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    artifact = {"schema": SCHEMA, "meta": dict(meta) if meta else {},
                "experiments": records}
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
