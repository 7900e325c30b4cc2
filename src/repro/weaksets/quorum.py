"""The quorum variant of the pessimistic iterator (§3.3's aside).

"Alternatively, one could easily specify the iterator to use a quorum
or token-based scheme by changing the last line."

:class:`QuorumRead` changes exactly that: instead of
reading ``s_pre`` from the primary (a single point of failure), each
invocation reads membership from a **majority of the collection's
hosts** and takes the union of the views (for a grow-only set, the
union of any set of views is a *lower bound* on the true current
membership — growth is monotone, so merging stale views is safe and
never invents members).  The failure branch becomes: fail only when no
majority of hosts is reachable, or a known member is unreachable.

The availability ablation (E4a) shows what this buys: the plain Fig 5
iterator dies with its primary; the quorum variant keeps answering as
long as any majority is up.
"""

from __future__ import annotations

from typing import Any, Generator

from ..errors import FailureException
from ..store.elements import Element
from .base import WeakSet
from .mechanism import Mechanism

__all__ = ["QuorumGrowOnlySet", "QuorumRead"]


class QuorumRead(Mechanism):
    """Figure 5 with the last line changed: quorum reads of s_pre.

    The fetch pipeline runs with ``failover=True`` (a transport failure
    at the home diverts to replica copies, batched per replica host)
    and ``validation="none"``: a grow-only collection never removes
    members and objects are immutable, so a value fetched while its
    host *was* reachable stays valid no matter how connectivity churns
    before the pop — revalidating would only manufacture spurious
    unreachable verdicts for data already in hand.
    """

    validation = "none"
    failover = True

    def read(self) -> Generator[Any, Any, frozenset[Element]]:
        """s_pre as the union of per-partition majority reads.

        Each partition owns a disjoint key range, so a *collection*
        quorum is meaningless — a majority of all partitions could miss
        one shard entirely and silently drop its range.  Instead every
        partition must independently assemble a majority among its own
        copies (the shard itself plus each mirror replica); the union of
        per-partition unions is then a lower bound on true membership.
        If any single partition cannot reach a majority, the whole read
        fails: a partial union would violate Figure 5's "yields every
        pre-existing, reachable member" obligation for the missing range.
        A classic collection is the one-partition case: one majority
        among its primary and replicas.
        """
        repo, coll_id = self.repo, self.coll_id
        placement = repo.placement(coll_id)
        merged: set[Element] = set()
        for shard in placement.shards:
            merged |= yield from self._majority_union(
                placement.partition_hosts(shard),
                lambda host: repo.read_shard_membership(coll_id, shard, host),
                f"copies of shard {shard} of {coll_id}")
        return frozenset(merged)

    @staticmethod
    def _majority_union(hosts, read_from,
                        what: str) -> Generator[Any, Any, set[Element]]:
        """Ask every host; union the views of those that answer; fail
        short of a majority (``what`` names the hosts in the message)."""
        needed = len(hosts) // 2 + 1
        merged: set[Element] = set()
        reached = 0
        last_error: FailureException = FailureException("no hosts")
        for host in hosts:
            try:
                view = yield from read_from(host)
                merged |= view.members
                reached += 1
            except FailureException as exc:
                last_error = exc
        if reached < needed:
            raise FailureException(
                f"no quorum: reached {reached}/{len(hosts)} {what} "
                f"(need {needed}); last error: {last_error}")
        return merged


class QuorumGrowOnlySet(WeakSet):
    """Figure 5 semantics, quorum reads; needs ``replicas >= 2``.

    Conformance note: against ground truth, a quorum-union view may lag
    the primary's very latest additions (replica lag), so the variant
    conforms to Figure 5 in the same window sense as everything else —
    additions propagate within one anti-entropy round.
    """

    semantics = "fig5"
    expected_policy = "grow-only"
    impl_name = "quorum"
    mechanism = QuorumRead
