"""Bench-session plumbing: emit the BENCH_obs.json artifact.

Every ``bench_*.py`` registers its :class:`ExperimentResult` via
:func:`repro.bench.artifact.record_result`; when the environment names
an output path, the whole session's results are written as one
schema-versioned artifact at exit::

    REPRO_BENCH_OBS=BENCH_obs.json pytest benchmarks -q

This is how the CI bench-smoke job produces the artifact it uploads and
diffs against the committed baseline (``python -m repro.bench compare``).
Without the variable set, nothing is written — local runs stay clean.
"""

import os

from repro.bench.artifact import recorded, write_artifact


def pytest_sessionfinish(session, exitstatus):
    path = os.environ.get("REPRO_BENCH_OBS")
    if path and recorded():
        artifact = write_artifact(path, meta={"source": "pytest benchmarks"})
        print(f"\n[bench-obs] wrote {artifact} "
              f"({len(recorded())} experiments)")
