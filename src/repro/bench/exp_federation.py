"""E11 — federated queries over independent repositories.

"there is no global consistency requirement that must be upheld across
a set of information repositories" — so composition should be free:
a union of weak sets over two repositories needs no coordination, and
the failure of one repository costs exactly that repository's answers.

We build two catalogs with a configurable overlap, fail one of them,
and compare three query plans: single-repository, federated with the
skip-on-failure policy, and federated with the fail-on-failure policy.
"""

from __future__ import annotations

from ..net.fabric import Network
from ..net.link import FixedLatency
from ..net.topology import full_mesh
from ..sim.kernel import Kernel
from ..spec import Returned
from ..store.world import World
from ..weaksets import DynamicSet, union
from .report import ExperimentResult

__all__ = ["run_federation"]


def _build(seed: int, overlap: int, per_repo: int):
    kernel = Kernel(seed=seed)
    nodes = ["client", "a0", "a1", "b0", "b1"]
    net = Network(kernel, full_mesh(nodes, FixedLatency(0.02)))
    world = World(net)
    world.create_collection("repo-a", primary="a0")
    world.create_collection("repo-b", primary="b0")
    for i in range(per_repo):
        world.seed_member("repo-a", f"a-only-{i}", value=i, home=f"a{i % 2}")
        world.seed_member("repo-b", f"b-only-{i}", value=i, home=f"b{i % 2}")
    for i in range(overlap):
        world.seed_member("repo-a", f"shared-{i}", value=i, home="a1")
        world.seed_member("repo-b", f"shared-{i}", value=i, home="b1")
    return kernel, net, world


def run_federation(per_repo: int = 8, overlap: int = 4,
                   seed: int = 0) -> ExperimentResult:
    """E11: answers and success per query plan, with repo B failed."""
    result = ExperimentResult(
        "E11", f"Federated search ({per_repo} unique/repo + {overlap} shared; "
               "repo B's hosts down)",
        columns=["plan", "success", "answers", "dups_suppressed",
                 "total_time"],
        notes="union-skip degrades gracefully to exactly repo A's view; "
              "union-fail inherits the strong all-or-nothing brittleness",
    )
    plans = (
        ("repo A only", ["repo-a"], "skip"),
        ("union (skip failures)", ["repo-a", "repo-b"], "skip"),
        ("union (fail on failure)", ["repo-a", "repo-b"], "fail"),
    )
    for plan_name, repos, policy in plans:
        kernel, net, world = _build(seed, overlap, per_repo)
        net.crash("b0")
        net.crash("b1")
        sets = [DynamicSet(world, "client", r, give_up_after=1.5, record=False)
                for r in repos]
        u = union(*sets, on_failure=policy)
        drained = kernel.run_process(u.drain())
        result.add(
            plan=plan_name,
            success=isinstance(drained.outcome, Returned),
            answers=len(drained.yields),
            dups_suppressed=u.duplicates_suppressed,
            total_time=drained.total_time,
        )
    # healthy-world reference: full federation with dedup
    kernel, net, world = _build(seed, overlap, per_repo)
    sets = [DynamicSet(world, "client", r, record=False)
            for r in ("repo-a", "repo-b")]
    u = union(*sets)
    drained = kernel.run_process(u.drain())
    result.add(
        plan="union (healthy world)",
        success=isinstance(drained.outcome, Returned),
        answers=len(drained.yields),
        dups_suppressed=u.duplicates_suppressed,
        total_time=drained.total_time,
    )
    return result
