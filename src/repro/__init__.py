"""Reproduction of *Specifying Weak Sets* (Wing & Steere, ICDCS 1995).

The package builds, from scratch, everything the paper describes or
depends on:

* :mod:`repro.sim` — deterministic discrete-event simulation kernel;
* :mod:`repro.net` — wide-area network with crashes, link failures, and
  partitions;
* :mod:`repro.store` — distributed object repository (scattered
  collections, stale replicas, the ``reachable`` ground truth);
* :mod:`repro.spec` — the paper's Larch-style specifications, executable,
  plus a trace conformance checker;
* :mod:`repro.weaksets` — the four weak-set design points and the strong
  (locking) baseline, as honest distributed programs;
* :mod:`repro.dynsets` — the dynamic-sets distributed file system layer;
* :mod:`repro.wan` — the paper's motivating WWW/library/restaurant
  workloads;
* :mod:`repro.bench` — the evaluation harness (experiments E1–E25).

Quickstart: see ``examples/quickstart.py`` or README.md.
"""

from . import errors
from .errors import FailureException
from .obs import MetricsRegistry, Observability, Span, Tracer
from .sim import Kernel, Sleep
from .net import FixedLatency, Network, ParetoLatency, UniformLatency, full_mesh, wan_clusters
from .store import Element, Repository, World, figure2_world
from .spec import (
    ALL_FIGURES,
    check_conformance,
    spec_by_id,
    taxonomy_table,
)
from .weaksets import (
    DynamicSet,
    GrowOnlySet,
    ImmutableSet,
    SnapshotSet,
    StrongSet,
    install_lock_service,
    make_weak_set,
    select,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_FIGURES",
    "DynamicSet",
    "Element",
    "FailureException",
    "FixedLatency",
    "GrowOnlySet",
    "ImmutableSet",
    "Kernel",
    "MetricsRegistry",
    "Network",
    "Observability",
    "ParetoLatency",
    "Repository",
    "Sleep",
    "SnapshotSet",
    "Span",
    "StrongSet",
    "Tracer",
    "UniformLatency",
    "World",
    "check_conformance",
    "errors",
    "figure2_world",
    "full_mesh",
    "install_lock_service",
    "make_weak_set",
    "select",
    "spec_by_id",
    "taxonomy_table",
    "wan_clusters",
]
