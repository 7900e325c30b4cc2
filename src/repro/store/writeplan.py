"""The batched, pipelined write engine behind bulk mutation.

:meth:`Repository.add` pays ``(1 + replicas + 1)`` *serial* WAN round
trips per element — home put, then each replica put one at a time, then
the membership registration — so populating the sets the paper's
iterators drain dominates every experiment's wall-clock.  This module is
the write-side twin of :mod:`repro.store.fetchplan`: the same
window/batch machinery, pointed at the opposite half of the protocol.

Two pieces:

:class:`WritePlanner`
    Groups pending operations into batches and coalesces each batch's
    object puts by destination node — every distinct destination gets
    one ``put_objects`` multi-put RPC carrying all of its copies.

:class:`WritePipeline`
    A sliding window of in-flight batches.  An *add* moves through two
    stages: first its object copies are written — one ``put_objects``
    per destination, all destinations issued **concurrently** (parallel
    ``Fork`` children joined by a barrier) instead of the serial replica
    loop — and only once every copy has acked does the element advance
    to the membership stage, where same-primary registrations coalesce
    into one ``add_members`` batch RPC.  A *remove* goes straight to a
    ``remove_members`` batch (the owner deletes the copies, under its
    own WAL intent).  On the server each batch RPC executes under a
    single WAL intent with per-item steps (group commit): a crash
    mid-batch is replayed item-precisely by the existing
    :class:`~repro.store.recovery.RecoveryManager`, and the batch's
    version bumps coalesce into one ``sync_delta``-visible jump.

Soundness — why batching cannot reorder what must not reorder:

* **Copy-implies-member** (the failover soundness condition from the
  resilient read path): ``add_members`` for an element is issued only
  after its home *and* replica puts have all acked, so from the first
  instant an element is visible in any membership read, every listed
  copy location really holds its bytes.  The put barrier enforces this
  per element; the two-stage queue enforces it across batches.
* A failed add cleans up after itself: any copies that did land are
  best-effort deleted (``write.orphan_cleanups``), and whatever cleanup
  cannot reach, the repair daemon's orphan-GC pass reclaims — so the
  orphan-object invariant holds at quiescence either way.
* A membership-batch failure is ambiguous (the ack may have been lost
  after the server applied it).  Adds resolve the ambiguity toward
  deletion — cleanup removes the copies, and if the registration *did*
  land, the members are left dangling for the scrub daemon's
  dangling-member pass to heal; both routes converge on "not a member".
  Removes are idempotent, so their failures simply surface to the
  caller, who may retry.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Generator, Optional, Sequence

from ..errors import FailureException, StoreError, WrongShardFailure
from ..net.address import NodeId
from ..net.wire import Blob
from ..sim.events import Fork, Join, Signal, Wait
from .elements import Element, ObjectId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .repository import Repository

__all__ = ["AddSpec", "WriteResult", "WritePlanner", "WritePipeline"]


@dataclass(frozen=True)
class AddSpec:
    """One element a caller wants added: the inputs of ``Repository.add``."""

    name: str
    value: Any = None
    home: Optional[NodeId] = None     # None: the collection's primary
    size: int = 0
    replicas: tuple[NodeId, ...] = ()
    oid: Optional[ObjectId] = None    # None: mint a fresh oid at submit
    # A caller-supplied oid makes resubmission idempotent: the offline
    # outbox mints the element once at queue time, so a crash-interrupted
    # reconcile can replay the same spec without creating a duplicate
    # (the server's add_members skips an identical existing member).


@dataclass(frozen=True)
class WriteResult:
    """One operation's fate at the hands of the pipeline."""

    kind: str                          # "add" | "remove"
    element: Element
    ok: bool
    error: Optional[BaseException] = field(default=None, compare=False)


@dataclass
class _WriteOp:
    """Internal per-operation state threaded through the stages."""

    index: int
    kind: str                          # "add" | "remove"
    element: Element
    spec: Optional[AddSpec] = None     # adds only
    done: bool = False
    ok: bool = False
    error: Optional[BaseException] = None


#: estimated wire overhead per write operation beyond its body bytes
#: (oid, element metadata, framing) — only the *relative* scale matters
#: for byte-capped batch forming.
_OP_OVERHEAD_BYTES = 96


class WritePlanner:
    """Forms batches and coalesces their puts by destination node.

    ``max_batch_bytes`` caps a batch's estimated wire bytes — body sizes
    plus a fixed per-op overhead — alongside the item cap, so one huge
    object cannot drag a dozen batchmates behind it on a slow link.  A
    batch always holds at least one op, however large.
    """

    def __init__(self, batch_size: int,
                 max_batch_bytes: Optional[int] = None):
        self.batch_size = max(1, batch_size)
        self.max_batch_bytes = max_batch_bytes

    def op_cost(self, op: "_WriteOp") -> int:
        """Estimated wire bytes this operation adds to its batch."""
        body = op.spec.size if op.spec is not None else 0
        return _OP_OVERHEAD_BYTES + max(0, body)

    def form(self, queue: deque) -> list:
        """Pop up to one batch's worth of operations off ``queue``."""
        if self.max_batch_bytes is None:
            return [queue.popleft()
                    for _ in range(min(self.batch_size, len(queue)))]
        batch: list = []
        budget = self.max_batch_bytes
        while queue and len(batch) < self.batch_size:
            cost = self.op_cost(queue[0])
            if batch and cost > budget:
                break
            batch.append(queue.popleft())
            budget -= cost
        return batch

    def put_groups(self, ops: Sequence[_WriteOp]
                   ) -> dict[NodeId, list[tuple[ObjectId, Any, int]]]:
        """Destination-coalesced put entries for a batch of adds.

        Every node that must hold a copy of any element in the batch —
        homes and object replicas alike — maps to the full list of
        ``(oid, value, size)`` entries bound for it: one ``put_objects``
        RPC per destination, issued concurrently by the pipeline.
        """
        groups: dict[NodeId, list[tuple[ObjectId, Any, int]]] = {}
        for op in ops:
            spec = op.spec
            # Ship the body as a Blob: the multi-put's wire cost then
            # includes each object's declared size.
            entry = (op.element.oid, Blob(spec.value, spec.size), spec.size)
            for dest in op.element.locations:
                groups.setdefault(dest, []).append(entry)
        return groups


class WritePipeline:
    """Sliding-window batched writer for one collection.

    ``window`` is the number of concurrent batch workers (how many
    batches may be in flight at once); ``batch_size`` bounds how many
    operations one batch RPC may carry.  With ``window=1,
    batch_size=1`` the pipeline degenerates to the serial write path —
    minus the serial replica loop, which is always fanned out.
    """

    def __init__(self, repo: "Repository", coll_id: str, *,
                 window: int = 4, batch_size: int = 8,
                 max_batch_bytes: Optional[int] = None, name: str = ""):
        self.repo = repo
        self.world = repo.world
        self.coll_id = coll_id
        self.window = max(1, window)
        self.planner = WritePlanner(batch_size, max_batch_bytes)
        self.batch_size = self.planner.batch_size
        self.max_batch_bytes = self.planner.max_batch_bytes
        self.name = name or f"write-{repo.client}"
        # -- work state ------------------------------------------------
        self._ops: list[_WriteOp] = []           # submission order
        self._put_todo: deque[_WriteOp] = deque()     # adds awaiting puts
        self._member_todo: deque[_WriteOp] = deque()  # adds, puts all acked
        self._remove_todo: deque[_WriteOp] = deque()
        self._active = 0                         # ops inside a worker
        self._sealed = False
        self._stopped = False
        self._procs: list = []
        self._waiters: list[Signal] = []         # blocked drain()
        self._idle: list[Signal] = []            # idle workers
        self._span = None
        # -- counters ---------------------------------------------------
        self.added = 0
        self.removed = 0
        self.failed = 0
        # -- observability (instruments pre-resolved, hot-path idiom) ---
        obs = repo.obs
        self._tracer = obs.tracer
        metrics = obs.metrics
        self._m_calls = metrics.counter("write.batch.calls")
        self._m_elements = metrics.counter("write.batch.elements")
        self._m_coalesced = metrics.counter("write.batch.coalesced")
        self._m_acked = metrics.counter("write.batch.acked")
        self._m_failed = metrics.counter("write.batch.failed")
        self._m_size = metrics.histogram("write.batch.size")
        self._m_fanout = metrics.histogram("write.batch.fanout")
        self._m_latency = metrics.histogram("write.batch.latency")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Open the pipeline span and spawn the batch workers.

        Workers adopt the caller's active span as their base parent
        (the fetch pipeline's adoption idiom), so batch RPCs issued
        from a worker still trace back to the bulk call that caused
        them.
        """
        if self._procs or self._stopped:
            return
        kernel = self.world.kernel
        self._span = self._tracer.start(
            "write.pipeline", window=self.window, batch=self.batch_size,
            client=self.repo.client, coll=self.coll_id)
        creator = kernel.current_process
        for i in range(self.window):
            proc = kernel.spawn(self._worker(), name=f"{self.name}-w{i}",
                                daemon=True)
            if creator is not None:
                kernel.adopt(proc, creator)
            self._procs.append(proc)

    def stop(self) -> None:
        """Kill the workers and close the span."""
        if self._stopped:
            return
        self._stopped = True
        for proc in self._procs:
            proc.kill()
        self._procs.clear()
        if self._span is not None:
            self._tracer.finish(self._span, added=self.added,
                                removed=self.removed, failed=self.failed)
            self._span = None

    def seal(self) -> None:
        """Promise no further submissions; lets workers exit once every
        operation has settled."""
        self._sealed = True
        self._kick_workers()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit_add(self, spec: AddSpec) -> Element:
        """Enqueue one add; returns its (not yet registered) element."""
        home = spec.home if spec.home is not None \
            else self.repo.placement(self.coll_id).owner_of(spec.name)
        replicas = tuple(r for r in spec.replicas if r != home)
        oid = spec.oid if spec.oid is not None \
            else self.repo.world.fresh_oid(spec.name)
        element = Element(name=spec.name, oid=oid, home=home, replicas=replicas)
        op = _WriteOp(index=len(self._ops), kind="add", element=element,
                      spec=AddSpec(spec.name, spec.value, home, spec.size,
                                   replicas, oid))
        self._ops.append(op)
        self._put_todo.append(op)
        self._kick_workers()
        return element

    def submit_remove(self, element: Element) -> None:
        op = _WriteOp(index=len(self._ops), kind="remove", element=element)
        self._ops.append(op)
        self._remove_todo.append(op)
        self._kick_workers()

    # ------------------------------------------------------------------
    # consumption
    # ------------------------------------------------------------------
    def drain(self) -> Generator[Any, Any, list[WriteResult]]:
        """Seal, wait for every operation to settle, report in
        submission order."""
        self.seal()
        while not all(op.done for op in self._ops):
            signal = Signal(name="write-drained")
            self._waiters.append(signal)
            yield Wait(signal)
        return [WriteResult(op.kind, op.element, op.ok, op.error)
                for op in self._ops]

    # ------------------------------------------------------------------
    # workers
    # ------------------------------------------------------------------
    def _worker(self) -> Generator:
        while not self._stopped:
            batch = self._next_batch()
            if batch is None:
                if self._sealed and self._exhausted():
                    return
                signal = Signal(name="write-work")
                self._idle.append(signal)
                yield Wait(signal)
                continue
            kind, ops = batch
            self._active += len(ops)
            try:
                if kind == "put":
                    yield from self._execute_puts(ops)
                else:
                    yield from self._execute_member_batches(ops, kind)
            finally:
                self._active -= len(ops)
            self._kick_workers()

    def _exhausted(self) -> bool:
        return (not self._put_todo and not self._member_todo
                and not self._remove_todo and self._active == 0)

    def _next_batch(self) -> Optional[tuple[str, list[_WriteOp]]]:
        limiter = self.repo.limiter
        if limiter is not None and self._active >= limiter.window:
            # AIMD congestion gate: the client's adaptive window caps
            # how many operations may be inside workers at once, below
            # the static worker count when servers are shedding.
            return None
        # Finish started work first: membership registrations complete
        # operations (and free drain() waiters) fastest.
        if self._member_todo:
            return "add", self.planner.form(self._member_todo)
        if self._remove_todo:
            return "remove", self.planner.form(self._remove_todo)
        if self._put_todo:
            return "put", self.planner.form(self._put_todo)
        return None

    # -- stage 1: object puts, destination-coalesced, concurrent ---------
    def _execute_puts(self, ops: list[_WriteOp]) -> Generator:
        """Write a batch's object copies: one ``put_objects`` per
        destination, every destination in flight at once, barrier-joined.
        Fully-acked adds advance to the membership stage; any element
        with a failed destination settles failed after best-effort
        cleanup of the copies that did land."""
        groups = self.planner.put_groups(ops)
        self._m_calls.value += len(groups)
        self._m_elements.value += len(ops)
        self._m_size.observe(len(ops))
        self._m_fanout.observe(len(groups))
        span = self._tracer.start("write.batch", kind="put", n=len(ops),
                                  fanout=len(groups))
        outcomes: dict[NodeId, Optional[FailureException]] = {}
        if len(groups) == 1:
            dest, entries = next(iter(groups.items()))
            self._m_coalesced.value += len(entries) - 1
            yield from self._put_child(dest, entries, outcomes)
        else:
            children = []
            for dest, entries in sorted(groups.items()):
                self._m_coalesced.value += len(entries) - 1
                child = yield Fork(
                    self._put_child(dest, entries, outcomes),
                    name=f"{self.name}-put-{dest}", daemon=True)
                children.append(child)
            for child in children:        # the barrier
                yield Join(child)
        self._m_latency.observe(self._tracer.finish(
            span, failed=sum(1 for e in outcomes.values() if e is not None)))
        for op in ops:
            failures = [(dest, outcomes[dest]) for dest in op.element.locations
                        if outcomes[dest] is not None]
            if not failures:
                self._member_todo.append(op)
                continue
            placed = tuple(dest for dest in op.element.locations
                           if outcomes[dest] is None)
            yield from self.repo._cleanup_orphans(op.element, placed)
            self._settle(op, ok=False, error=failures[0][1])

    def _put_child(self, dest: NodeId,
                   entries: list[tuple[ObjectId, Any, int]],
                   outcomes: dict) -> Generator:
        try:
            yield from self.repo._call(dest, "put_objects", tuple(entries))
        except FailureException as exc:
            self.repo._feed_limiter(exc)
            outcomes[dest] = exc
            return
        self.repo._feed_limiter(None)
        outcomes[dest] = None

    # -- stage 2: membership registration, group-committed ----------------
    def _execute_member_batches(self, ops: list[_WriteOp],
                                kind: str) -> Generator:
        """Register (``kind="add"``) or remove a batch's memberships,
        grouped by owner, through the ``<kind>_members`` batch RPC.

        Against a single home this is exactly one group-committed batch
        RPC — the pre-sharding behaviour.  Against a sharded registry
        the operations are grouped by each element's owning shard and
        every shard's sub-batch is issued **concurrently** (parallel
        ``Fork`` children, barrier-joined), each under its own per-shard
        WAL group commit.  A ``WrongShardFailure`` — the placement cut
        over between planning and serve time — re-resolves the live map
        and re-issues only the bounced sub-batch (bounded retries).
        """
        pending = list(ops)
        last_bounce: Optional[WrongShardFailure] = None
        for _ in range(3):
            placement = self.repo.placement(self.coll_id)
            groups: dict[NodeId, list[_WriteOp]] = {}
            for op in pending:
                owner = placement.owner_of(op.element.name)
                groups.setdefault(owner, []).append(op)
            outcomes: dict[NodeId, Optional[BaseException]] = {}
            if len(groups) == 1:
                owner, group = next(iter(groups.items()))
                yield from self._member_child(owner, group, kind, outcomes)
            else:
                children = []
                for owner, group in sorted(groups.items()):
                    child = yield Fork(
                        self._member_child(owner, group, kind, outcomes),
                        name=f"{self.name}-{kind}-{owner}", daemon=True)
                    children.append(child)
                for child in children:          # the barrier
                    yield Join(child)
            pending = []
            for owner, group in sorted(groups.items()):
                exc = outcomes[owner]
                if exc is None:
                    for op in group:
                        self._settle(op, ok=True)
                elif isinstance(exc, WrongShardFailure):
                    self.repo._m.reroutes.value += 1
                    last_bounce = exc
                    pending.extend(group)
                else:
                    yield from self._fail_members(group, kind, exc)
            if not pending:
                return
        yield from self._fail_members(pending, kind, last_bounce)

    def _fail_members(self, ops: list[_WriteOp], kind: str,
                      exc: Optional[BaseException]) -> Generator:
        """Settle a failed membership sub-batch."""
        for op in ops:
            if kind == "add":
                # Ambiguous (lost ack) or rejected (name conflict fails
                # its sub-batch): resolve toward deletion — see module
                # docstring for why cleanup-vs-rollforward races
                # converge.  (Removal is idempotent and the server
                # commits any fully-erased prefix, so its failure just
                # surfaces; a plain retry is safe.)
                yield from self.repo._cleanup_orphans(
                    op.element, op.element.locations)
            self._settle(op, ok=False, error=exc)

    def _member_child(self, owner: NodeId, group: list[_WriteOp],
                      kind: str, outcomes: dict) -> Generator:
        elements = tuple(op.element for op in group)
        self._m_calls.value += 1
        self._m_elements.value += len(group)
        self._m_coalesced.value += len(group) - 1
        self._m_size.observe(len(group))
        span = self._tracer.start("write.batch", kind=kind,
                                  host=owner, n=len(group))
        try:
            yield from self.repo._call(owner, f"{kind}_members", self.coll_id,
                                       elements)
        except (FailureException, StoreError) as exc:
            self._tracer.finish(span, outcome=type(exc).__name__)
            self.repo._feed_limiter(exc)
            outcomes[owner] = exc
            return
        self._m_latency.observe(self._tracer.finish(span, outcome="ok"))
        self.repo._feed_limiter(None)
        outcomes[owner] = None

    # ------------------------------------------------------------------
    def _settle(self, op: _WriteOp, *, ok: bool,
                error: Optional[BaseException] = None) -> None:
        if op.done:
            return
        op.done = True
        op.ok = ok
        op.error = error
        if ok:
            self._m_acked.value += 1
            if op.kind == "add":
                self.added += 1
            else:
                self.removed += 1
        else:
            self._m_failed.value += 1
            self.failed += 1
        waiters, self._waiters = self._waiters, []
        for signal in waiters:
            if not signal.fired:
                signal.fire(None)

    def _kick_workers(self) -> None:
        idle, self._idle = self._idle, []
        for signal in idle:
            if not signal.fired:
                signal.fire(None)

    def __repr__(self) -> str:
        return (f"WritePipeline({self.name}, coll={self.coll_id!r}, "
                f"window={self.window}, batch={self.batch_size}, "
                f"added={self.added}, removed={self.removed}, "
                f"failed={self.failed})")
