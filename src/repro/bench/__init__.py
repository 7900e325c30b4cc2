"""The evaluation harness: experiments E1–E25 (see DESIGN.md §5).

Each ``run_*`` function builds its worlds, runs the simulation, and
returns an :class:`~repro.bench.report.ExperimentResult` whose ``str()``
is the table recorded in EXPERIMENTS.md.  ``tests/test_experiments.py``
runs each one from :data:`ALL_EXPERIMENTS` and asserts its claim's
shape.  Every number an experiment reports is a simulated one — host
time is measured by ``perf/`` only — so a table is a pure function of
(code, seed).
"""

from .exp_availability import run_availability, run_availability_ablation
from .exp_conformance import IMPL_CASES, run_conformance_matrix
from .exp_disconnected import (
    run_disconnected,
    run_geo_flap,
    run_outbox_crash,
    run_reconcile_cost,
)
from .exp_federation import run_federation
from .exp_consistency import run_cache_ablation, run_staleness
from .exp_convergence import run_convergence
from .exp_detector import run_detector
from .exp_fetchpipe import run_fetchpipe
from .exp_ghosts import run_ghosts
from .exp_latency import (
    build_scattered_fs,
    run_early_exit,
    run_prefetch,
    run_time_to_first,
)
from .exp_locking import run_disconnection, run_lock_cost
from .exp_motivating import run_motivating
from .exp_obs import run_obs
from .exp_overload import run_overload
from .exp_population import run_population
from .exp_recovery import run_recovery
from .exp_resilience import run_resilience
from .exp_scale import run_scale
from .exp_sharding import run_sharding
from .exp_system import run_system
from .exp_wire import run_wire
from .exp_writepipe import run_writepipe
from .exp_static import run_reachability, run_taxonomy
from .metrics import Summary, rate, summarize
from .report import ExperimentResult, format_table

__all__ = [
    "ExperimentResult",
    "IMPL_CASES",
    "Summary",
    "build_scattered_fs",
    "format_table",
    "rate",
    "run_availability",
    "run_availability_ablation",
    "run_cache_ablation",
    "run_conformance_matrix",
    "run_convergence",
    "run_detector",
    "run_disconnected",
    "run_disconnection",
    "run_federation",
    "run_early_exit",
    "run_geo_flap",
    "run_fetchpipe",
    "run_ghosts",
    "run_lock_cost",
    "run_motivating",
    "run_obs",
    "run_outbox_crash",
    "run_overload",
    "run_population",
    "run_prefetch",
    "run_reconcile_cost",
    "run_recovery",
    "run_resilience",
    "run_reachability",
    "run_scale",
    "run_sharding",
    "run_staleness",
    "run_system",
    "run_taxonomy",
    "run_time_to_first",
    "run_wire",
    "run_writepipe",
    "summarize",
]

ALL_EXPERIMENTS = {
    "E1": run_conformance_matrix,
    "E2": run_time_to_first,
    "E2a": run_early_exit,
    "E3": run_prefetch,
    "E4": run_availability,
    "E4a": run_availability_ablation,
    "E5": run_staleness,
    "E5a": run_cache_ablation,
    "E6": run_lock_cost,
    "E6b": run_disconnection,
    "E7": run_motivating,
    "E8": run_taxonomy,
    "E9": run_reachability,
    "E10": run_ghosts,
    "E11": run_federation,
    "E12": run_scale,
    "E13": run_system,
    "E14": run_convergence,
    "E15": run_detector,
    "E16": run_resilience,
    "E17": run_obs,
    "E18": run_recovery,
    "E19": run_fetchpipe,
    "E20": run_writepipe,
    "E21": run_disconnected,
    "E21a": run_reconcile_cost,
    "E21b": run_outbox_crash,
    "E21c": run_geo_flap,
    "E22": run_population,
    "E23": run_overload,
    "E24": run_sharding,
    "E25": run_wire,
}
