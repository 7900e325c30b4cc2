"""E13 — the system under a population of users.

The paper's closing promise is about a *system*: many (human-paced)
clients querying shared collections while writers publish.  We run a
user population against one world, dynamic-sets vs strong semantics,
and measure what each user experiences (query latency) and what the
writer experiences (publish latency) — the whole-system version of the
per-query experiments.
"""

from __future__ import annotations

from ..errors import FailureException, MutationNotAllowed, StoreError
from ..sim.events import Sleep
from ..wan.workload import ScenarioSpec, build_scenario
from ..weaksets import StrongSet, install_lock_service, make_weak_set
from .harness import mean_or_nan
from .metrics import summarize
from .report import ExperimentResult

__all__ = ["run_system"]


def _run_population(semantics: str, *, n_users: int, queries_per_user: int,
                    think_time: float, n_members: int, seed: int,
                    writer_priority: bool = False):
    spec = ScenarioSpec(n_clusters=4, cluster_size=3, n_members=n_members)
    scenario = build_scenario(spec, seed=seed)
    install_lock_service(scenario.world, spec.primary,
                         writer_priority=writer_priority)
    kernel = scenario.kernel
    query_latencies: list[float] = []
    publish_latencies: list[float] = []
    user_nodes = [f"n{c}.{i}" for c in range(4) for i in range(3)]

    def user(index: int):
        node = user_nodes[index % len(user_nodes)]
        ws = make_weak_set(scenario.world, node, spec.coll_id, semantics,
                           record=False)
        stream = kernel.stream(f"user{index}")
        for _ in range(queries_per_user):
            t0 = kernel.now
            result = yield from ws.elements().drain()
            if not result.failed:
                query_latencies.append(kernel.now - t0)
            yield Sleep(stream.exponential(think_time))

    def publisher():
        ws = StrongSet(scenario.world, spec.primary, spec.coll_id,
                       record=False)
        stream = kernel.stream("publisher")
        for i in range(6):
            yield Sleep(stream.exponential(2.0))
            t0 = kernel.now
            try:
                yield from ws.add(f"published-{i}", value=i)
                publish_latencies.append(kernel.now - t0)
            except (FailureException, MutationNotAllowed, StoreError):
                pass

    for i in range(n_users):
        kernel.spawn(user(i), name=f"user-{i}")
    kernel.spawn(publisher(), name="publisher", daemon=True)
    kernel.run(until=600.0)
    return query_latencies, publish_latencies, kernel.now


def run_system(n_users: int = 8, queries_per_user: int = 3,
               think_time: float = 1.0, n_members: int = 24,
               seed: int = 0) -> ExperimentResult:
    """E13: user-visible latencies under load, per semantics."""
    result = ExperimentResult(
        "E13", f"System under load: {n_users} users x {queries_per_user} "
               f"queries, one publisher",
        columns=["semantics", "queries_ok", "query_mean", "query_p95",
                 "publishes_ok", "publish_mean"],
        notes="strong readers share the lock with each other but "
              "serialize against the publisher, inflating publish "
              "latency; dynamic queries and publishes never interfere",
    )
    variants = (
        ("dynamic", False),
        ("strong", False),
        ("strong + writer-priority", True),
    )
    for label, writer_priority in variants:
        semantics = "dynamic" if label == "dynamic" else "strong"
        queries, publishes, _ = _run_population(
            semantics, n_users=n_users, queries_per_user=queries_per_user,
            think_time=think_time, n_members=n_members, seed=seed,
            writer_priority=writer_priority,
        )
        q = summarize(queries)
        result.add(
            semantics=label,
            queries_ok=len(queries),
            query_mean=mean_or_nan(queries),
            query_p95=q.p95 if q else float("nan"),
            publishes_ok=len(publishes),
            publish_mean=mean_or_nan(publishes),
        )
    return result
